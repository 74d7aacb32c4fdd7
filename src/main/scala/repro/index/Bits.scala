package repro.index

import scala.collection.mutable

/** Append-only bit buffer (LSB-first within each byte). */
final class BitWriter {
  private val buf = mutable.ArrayBuffer.empty[Byte]
  private var bitPos = 0 // next free bit in the last byte, 0..7
  private var total = 0L

  /** Write the low `n` bits of `bits`, least significant first. */
  def write(bits: Long, n: Int): Unit = {
    require(n >= 0 && n <= 64)
    var i = 0
    while (i < n) {
      if (bitPos == 0) buf += 0
      if (((bits >>> i) & 1L) == 1L)
        buf(buf.length - 1) = (buf(buf.length - 1) | (1 << bitPos)).toByte
      bitPos = (bitPos + 1) & 7
      i += 1
    }
    total += n
  }

  def lengthBits: Long = total
  def toBytes: Array[Byte] = buf.toArray
}

/** Sequential reader matching BitWriter's layout. */
final class BitReader(bytes: Array[Byte]) {
  private var pos = 0L

  def read(n: Int): Long = {
    var v = 0L
    var i = 0
    while (i < n) {
      val byteIdx = (pos >> 3).toInt
      val bitIdx = (pos & 7).toInt
      if (((bytes(byteIdx) >> bitIdx) & 1) == 1) v |= 1L << i
      pos += 1
      i += 1
    }
    v
  }
}

/** Canonical-enough Huffman coder over Int symbols, used to compress the
  * delta-encoded trajectory-id lists of the grid index (§5.1, following
  * [19, 22, 42]). Codes are emitted bit-by-bit along the tree path so the
  * decoder walks the same tree. */
object Huffman {

  sealed trait Node { def weight: Long; def order: Int }
  final case class Leaf(sym: Int, weight: Long, order: Int) extends Node
  final case class Branch(l: Node, r: Node, weight: Long, order: Int) extends Node
  /** The unused sibling that gives a one-symbol alphabet its 1-bit code. */
  final case class Pad(order: Int) extends Node { def weight: Long = 0L }

  final case class Table(root: Node, codeOf: Map[Int, (Long, Int)]) {
    /** Approximate serialized table cost: 32-bit symbol + 8-bit length each. */
    def tableBits: Long = codeOf.size.toLong * 40
  }

  def build(freq: collection.Map[Int, Long]): Table = {
    require(freq.nonEmpty, "empty alphabet")
    var order = 0
    val pq = mutable.PriorityQueue.empty[Node](
      Ordering.by[Node, (Long, Int)](n => (n.weight, n.order)).reverse)
    for ((s, w) <- freq.toSeq.sortBy(_._1)) { pq.enqueue(Leaf(s, math.max(w, 1L), order)); order += 1 }
    if (pq.size == 1) { // give the one symbol the 1-bit code 0
      val only = pq.dequeue()
      pq.enqueue(Branch(only, Pad(order), only.weight, order + 1))
    }
    while (pq.size > 1) {
      val a = pq.dequeue(); val b = pq.dequeue()
      pq.enqueue(Branch(a, b, a.weight + b.weight, order)); order += 1
    }
    val root = pq.dequeue()
    val codes = mutable.HashMap.empty[Int, (Long, Int)]
    def walk(n: Node, bits: Long, len: Int): Unit = n match {
      case Leaf(s, _, _) => codes(s) = (bits, len)
      case Pad(_) =>
      case Branch(l, r, _, _) =>
        walk(l, bits, len + 1)              // left = 0 (bit stays unset at this depth)
        walk(r, bits | (1L << len), len + 1) // right = 1
    }
    walk(root, 0L, 0)
    Table(root, codes.toMap)
  }

  def encodeSym(w: BitWriter, t: Table, s: Int): Unit = {
    val (bits, len) = t.codeOf.getOrElse(s, sys.error(s"symbol $s not in Huffman table"))
    w.write(bits, len)
  }

  def decodeSym(r: BitReader, t: Table): Int = {
    var n: Node = t.root
    while (true) {
      n match {
        case Leaf(s, _, _) => return s
        case Pad(_) => throw new IllegalArgumentException("bits do not spell a Huffman code")
        case Branch(l, rr, _, _) => n = if (r.read(1) == 0L) l else rr
      }
    }
    throw new IllegalStateException("unreachable")
  }
}

/** Delta + Huffman codec for sorted trajectory-id lists. The symbol stream
  * of one posting is (first id, gap, gap, ...). */
object IdCodec {

  final case class Encoded(bytes: Array[Byte], bitLen: Long, count: Int)

  def gapSymbols(sortedIds: Array[Int]): Array[Int] = {
    if (sortedIds.isEmpty) return Array.empty
    val out = new Array[Int](sortedIds.length)
    out(0) = sortedIds(0)
    var i = 1
    while (i < sortedIds.length) { out(i) = sortedIds(i) - sortedIds(i - 1); i += 1 }
    out
  }

  def buildTable(postings: Iterable[Array[Int]]): Huffman.Table = {
    val freq = mutable.HashMap.empty[Int, Long]
    for (p <- postings; s <- gapSymbols(p)) freq(s) = freq.getOrElse(s, 0L) + 1
    if (freq.isEmpty) freq(0) = 1
    Huffman.build(freq)
  }

  def encode(sortedIds: Array[Int], table: Huffman.Table): Encoded = {
    val w = new BitWriter
    gapSymbols(sortedIds).foreach(Huffman.encodeSym(w, table, _))
    Encoded(w.toBytes, w.lengthBits, sortedIds.length)
  }

  /** Index size: one code table for all `postings`, each posting's code plus
    * a 32-bit count header, and 4×64 bits per rectangle (alone if no postings). */
  def indexBits(postings: Iterable[Array[Int]], rects: Int): Long = {
    val rectBits = rects.toLong * 4 * 64
    if (postings.isEmpty) return rectBits
    val table = buildTable(postings)
    table.tableBits + rectBits + postings.iterator.map(p => encode(p, table).bitLen + 32).sum
  }

  def decode(e: Encoded, table: Huffman.Table): Array[Int] = {
    if (e.count == 0) return Array.empty
    val r = new BitReader(e.bytes)
    val out = new Array[Int](e.count)
    out(0) = Huffman.decodeSym(r, table)
    var i = 1
    while (i < e.count) { out(i) = out(i - 1) + Huffman.decodeSym(r, table); i += 1 }
    out
  }
}
