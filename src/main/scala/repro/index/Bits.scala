package repro.index

import scala.collection.mutable

/** Size of the delta + Huffman-coded trajectory-id postings of the grid
  * index (§5.1, following [19, 22, 42]). The symbol stream of one posting is
  * (first id, gap, gap, ...), the gaps as `Int` differences that wrap on
  * overflow, and one Huffman code serves all postings of an index. Nothing
  * stores the coded bits, so only their length is computed: a Huffman code
  * spends Σ freq·length bits, which equals the sum of the weights its
  * construction merges (Huffman, 1952). */
object IdCodec {

  /** Index size: one code table for all `postings` at 40 bits per symbol
    * (32-bit symbol + 8-bit length, at least one symbol), each posting's code
    * plus a 32-bit count header, and 4×64 bits per rectangle (alone if no
    * postings). A one-symbol alphabet gets a 1-bit code. */
  def indexBits(postings: Iterable[Array[Int]], rects: Int): Long = {
    val rectBits = rects.toLong * 4 * 64
    if (postings.isEmpty) return rectBits
    val freq = mutable.HashMap.empty[Int, Long]
    var headerBits = 0L
    for (p <- postings) {
      headerBits += 32
      var i = 0
      while (i < p.length) {
        val s = if (i == 0) p(0) else p(i) - p(i - 1)
        freq(s) = freq.getOrElse(s, 0L) + 1
        i += 1
      }
    }
    val weights = mutable.PriorityQueue.from(freq.valuesIterator)(Ordering[Long].reverse)
    if (weights.size == 1) weights += 0L // the unused sibling of a lone symbol's 1-bit code
    var codeBits = 0L
    while (weights.size > 1) {
      val merged = weights.dequeue() + weights.dequeue()
      codeBits += merged
      weights += merged
    }
    math.max(freq.size, 1) * 40L + headerBits + rectBits + codeBits
  }
}
