package repro.index

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class BitsSpec extends AnyFunSuite {

  test("BitWriter/BitReader round-trip fixed patterns") {
    val w = new BitWriter
    w.write(0x5L, 3)
    w.write(0x0L, 2)
    w.write(0xffL, 8)
    w.write(1L, 1)
    val r = new BitReader(w.toBytes)
    assert(r.read(3) == 0x5L)
    assert(r.read(2) == 0x0L)
    assert(r.read(8) == 0xffL)
    assert(r.read(1) == 1L)
    assert(w.lengthBits == 14)
  }

  for (seed <- 0 until 10)
    test(s"BitWriter/BitReader round-trip random widths (seed=$seed)") {
      val rng = new Random(seed)
      val items = Seq.fill(200) {
        val n = 1 + rng.nextInt(63)
        val v = rng.nextLong() & ((1L << n) - 1)
        (v, n)
      }
      val w = new BitWriter
      items.foreach { case (v, n) => w.write(v, n) }
      val r = new BitReader(w.toBytes)
      items.foreach { case (v, n) => assert(r.read(n) == v) }
    }

  test("Huffman: single symbol alphabet gets a 1-bit code") {
    val t = Huffman.build(Map(7 -> 100L))
    assert(t.codeOf(7)._2 == 1)
    val w = new BitWriter
    (1 to 5).foreach(_ => Huffman.encodeSym(w, t, 7))
    val r = new BitReader(w.toBytes)
    (1 to 5).foreach(_ => assert(Huffman.decodeSym(r, t) == 7))
  }

  test("Huffman: frequent symbols get codes no longer than rare ones") {
    val t = Huffman.build(Map(1 -> 1000L, 2 -> 10L, 3 -> 1L))
    assert(t.codeOf(1)._2 <= t.codeOf(2)._2)
    assert(t.codeOf(2)._2 <= t.codeOf(3)._2)
  }

  test("Huffman codes are prefix-free") {
    val t = Huffman.build(Map(1 -> 5L, 2 -> 9L, 3 -> 12L, 4 -> 13L, 5 -> 16L, 6 -> 45L))
    val codes = t.codeOf.values.toSeq
    for (Seq((b1, l1), (b2, l2)) <- codes.combinations(2)) {
      val (sb, sl, lb, ll) = if (l1 <= l2) (b1, l1, b2, l2) else (b2, l2, b1, l1)
      // short code must not be a prefix of the long one (LSB-first layout)
      assert(sl == ll || (lb & ((1L << sl) - 1)) != sb)
    }
  }

  for (seed <- 20 until 30)
    test(s"Huffman round-trips random symbol streams (seed=$seed)") {
      val rng = new Random(seed)
      val alphabet = (0 until (2 + rng.nextInt(40))).toArray
      val freq = alphabet.map(s => s -> (1L + rng.nextInt(100))).toMap
      val t = Huffman.build(freq)
      val syms = Seq.fill(500)(alphabet(rng.nextInt(alphabet.length)))
      val w = new BitWriter
      syms.foreach(Huffman.encodeSym(w, t, _))
      val r = new BitReader(w.toBytes)
      syms.foreach(s => assert(Huffman.decodeSym(r, t) == s))
    }

  test("gapSymbols delta-encodes sorted ids") {
    assert(IdCodec.gapSymbols(Array(3, 7, 8, 20)).toSeq == Seq(3, 4, 1, 12))
    assert(IdCodec.gapSymbols(Array.empty).isEmpty)
    assert(IdCodec.gapSymbols(Array(5)).toSeq == Seq(5))
  }

  for (seed <- 40 until 50)
    test(s"IdCodec round-trips random posting lists (seed=$seed)") {
      val rng = new Random(seed)
      val postings = Seq.fill(20)(
        Seq.fill(1 + rng.nextInt(50))(rng.nextInt(10000)).distinct.sorted.toArray)
      val table = IdCodec.buildTable(postings)
      for (p <- postings) {
        val e = IdCodec.encode(p, table)
        assert(IdCodec.decode(e, table).toSeq == p.toSeq)
        assert(e.bitLen > 0 || p.isEmpty)
      }
    }

  test("delta+Huffman compresses dense consecutive id lists well") {
    val ids = (100 until 600).toArray // gaps are all 1
    val table = IdCodec.buildTable(Seq(ids))
    val e = IdCodec.encode(ids, table)
    // ~1–2 bits per gap beats 32-bit raw ids by a wide margin
    assert(e.bitLen < ids.length.toLong * 8, s"bits=${e.bitLen}")
  }

  test("IdCodec round-trips postings whose gap symbols include Int.MinValue") {
    // -1 then Int.MaxValue: the gap wraps to Int.MinValue
    val postings = Seq(Array(-1, Int.MaxValue), Array(Int.MinValue, 0, 5), Array(3, 4))
    val table = IdCodec.buildTable(postings)
    assert(table.codeOf.contains(Int.MinValue))
    for (p <- postings) assert(IdCodec.decode(IdCodec.encode(p, table), table).toSeq == p.toSeq)
    assert(IdCodec.indexBits(postings, rects = 2) > 0)
  }

  test("Huffman: a one-symbol Int.MinValue alphabet gets a 1-bit code") {
    val t = Huffman.build(Map(Int.MinValue -> 3L))
    assert(t.codeOf == Map(Int.MinValue -> ((0L, 1))))
    val w = new BitWriter
    (1 to 3).foreach(_ => Huffman.encodeSym(w, t, Int.MinValue))
    val r = new BitReader(w.toBytes)
    (1 to 3).foreach(_ => assert(Huffman.decodeSym(r, t) == Int.MinValue))
    val posting = Array(Int.MinValue)
    val table = IdCodec.buildTable(Seq(posting))
    assert(IdCodec.decode(IdCodec.encode(posting, table), table).toSeq == posting.toSeq)
  }

  test("IdCodec on empty posting") {
    val table = IdCodec.buildTable(Seq(Array(1, 2)))
    val e = IdCodec.encode(Array.empty, table)
    assert(e.count == 0 && IdCodec.decode(e, table).isEmpty)
  }
}
