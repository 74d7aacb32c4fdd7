package repro.index

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ReferenceIndexBits
import scala.util.Random

class BitsSpec extends AnyFunSuite {

  /** One posting per id, so each id is one first-id symbol. */
  private def singletons(ids: Seq[Int]): Seq[Array[Int]] = ids.map(Array(_))

  /** The symbols indexBits counts for one posting: the first id, then gaps. */
  private def gapSymbols(p: Array[Int]): Seq[Int] = p.indices.map(i => if (i == 0) p(0) else p(i) - p(i - 1))

  /** Reads `bits` back as symbols of the prefix-free `code`. */
  private def decode(bits: String, code: Map[Int, String]): Seq[Int] = {
    val symOf = code.map(_.swap)
    val out = Seq.newBuilder[Int]
    var from = 0
    for (to <- 1 to bits.length) symOf.get(bits.substring(from, to)).foreach { s => out += s; from = to }
    assert(from == bits.length, s"${bits.length - from} trailing bits")
    out.result()
  }

  test("indexBits equals the Huffman tree reference for any postings and rectangles") {
    // Ids near 0 repeat gaps; ids near the Int range's ends wrap them.
    val id = Gen.frequency(4 -> Gen.choose(0, 20), 3 -> Gen.choose(-50, 50),
      2 -> Gen.oneOf(Int.MinValue, Int.MinValue + 1, -1, 0, Int.MaxValue), 1 -> Gen.choose(Int.MinValue, Int.MaxValue))
    val posting = Gen.listOf(id).map(_.sorted.toArray)
    // Every id k·g of a posting is one symbol g, wrapped or not: a
    // one-symbol alphabet, padded with empty postings.
    val oneSymbol = for {
      g <- Gen.oneOf(Gen.choose(-5, 5), Gen.const(Int.MinValue))
      lens <- Gen.nonEmptyListOf(Gen.choose(0, 6))
    } yield lens.map(n => Array.tabulate(n)(k => (k + 1) * g))
    val postings = Gen.frequency(1 -> Gen.const(Nil), 2 -> Gen.nonEmptyListOf(Gen.const(Array.empty[Int])),
      3 -> oneSymbol, 6 -> Gen.listOf(posting))
    var noPostings, onlyEmpty, oneSym, negative, wrapped = 0
    val rectsSeen = new Array[Int](4)
    val cases = for (ps <- postings; rects <- Gen.choose(0, 3)) yield (ps, rects)
    val prop = Prop.forAll(cases) { case (ps, rects) =>
      val gaps = ps.flatMap(p => p.indices.map(i => if (i == 0) p(0).toLong else p(i).toLong - p(i - 1)))
      if (ps.isEmpty) noPostings += 1
      else if (gaps.isEmpty) onlyEmpty += 1
      if (gaps.map(_.toInt).distinct.size == 1) oneSym += 1
      if (gaps.exists(_ < 0)) negative += 1
      if (gaps.exists(g => g != g.toInt && g.toInt == Int.MinValue)) wrapped += 1
      if (rects >= 0 && rects <= 3) rectsSeen(rects) += 1
      val got = IdCodec.indexBits(ps, rects)
      val want = ReferenceIndexBits.indexBits(ps, rects)
      (got == want) :| s"postings ${ps.map(_.mkString("[", ",", "]"))}, $rects rects: got $got, want $want"
    }
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(20261022L), prop)
    assert(r.passed, Pretty.pretty(r))
    assert(noPostings > 0 && onlyEmpty > 0 && oneSym > 0 && negative > 0 && wrapped > 0 && rectsSeen.forall(_ > 0),
      s"none=$noPostings onlyEmpty=$onlyEmpty oneSymbol=$oneSym negative=$negative wrapped=$wrapped " +
        s"rects=${rectsSeen.mkString(",")}")
  }

  test("indexBits codes a posting as its first id and its gaps") {
    // symbols 3, 4, 1, 12: four 2-bit codes, 40 table bits each, one header
    assert(IdCodec.indexBits(Seq(Array(3, 7, 8, 20)), rects = 0) == 4 * 40 + 32 + 8)
    assert(IdCodec.indexBits(Seq(Array(3, 7, 8, 20)), 0) - 32 == IdCodec.indexBits(singletons(Seq(3, 4, 1, 12)), 0) - 4 * 32)
  }

  test("indexBits charges the textbook Huffman cost for weights 5, 9, 12, 13, 16 and 45") {
    val ids = Seq(1 -> 5, 2 -> 9, 3 -> 12, 4 -> 13, 5 -> 16, 6 -> 45).flatMap { case (s, n) => Seq.fill(n)(s) }
    assert(IdCodec.indexBits(singletons(ids), rects = 0) == 6 * 40 + 100 * 32 + 224)
  }

  test("Huffman codes are prefix-free") {
    val weights = Map(1 -> 5L, 2 -> 9L, 3 -> 12L, 4 -> 13L, 5 -> 16L, 6 -> 45L)
    val code = ReferenceIndexBits.codes(weights)
    for (Seq(a, b) <- code.values.toSeq.combinations(2))
      assert(!a.startsWith(b) && !b.startsWith(a), s"$a and $b")
    // indexBits charges each symbol the length of its code
    val ids = weights.toSeq.flatMap { case (s, n) => Seq.fill(n.toInt)(s) }
    val codeBits = weights.map { case (s, n) => n * code(s).length }.sum
    assert(IdCodec.indexBits(singletons(ids), rects = 0) == 6 * 40 + 100 * 32 + codeBits)
  }

  for (seed <- 20 until 30)
    test(s"Huffman round-trips random symbol streams (seed=$seed)") {
      val rng = new Random(seed)
      val alphabet = (0 until (2 + rng.nextInt(40))).toArray
      val syms = Seq.fill(500)(alphabet(rng.nextInt(alphabet.length)))
      val freq = syms.groupMapReduce(identity)(_ => 1L)(_ + _)
      val code = ReferenceIndexBits.codes(freq)
      val bits = syms.map(code).mkString
      assert(decode(bits, code) == syms)
      // one singleton posting per symbol: the stream's bits plus headers
      assert(IdCodec.indexBits(singletons(syms), rects = 0) == freq.size * 40L + 500 * 32 + bits.length)
    }

  for (seed <- 40 until 50)
    test(s"IdCodec round-trips random posting lists (seed=$seed)") {
      val rng = new Random(seed)
      val postings = Seq.fill(20)(
        Seq.fill(1 + rng.nextInt(50))(rng.nextInt(10000)).distinct.sorted.toArray)
      val freq = postings.flatMap(gapSymbols).groupMapReduce(identity)(_ => 1L)(_ + _)
      val code = ReferenceIndexBits.codes(freq)
      var codeBits = 0L
      for (p <- postings) {
        val bits = gapSymbols(p).map(code).mkString
        assert(bits.nonEmpty)
        assert(decode(bits, code).scanLeft(0)(_ + _).tail == p.toSeq)
        codeBits += bits.length
      }
      assert(IdCodec.indexBits(postings, rects = 0) == freq.size * 40L + 20 * 32 + codeBits)
    }

  test("Huffman: frequent symbols get codes no longer than rare ones") {
    // 1000 × 1 bit + 10 × 2 bits + 1 × 2 bits
    val ids = Seq.fill(1000)(1) ++ Seq.fill(10)(2) :+ 3
    assert(IdCodec.indexBits(singletons(ids), rects = 0) == 3 * 40 + 1011 * 32 + 1022)
  }

  test("Huffman: single symbol alphabet gets a 1-bit code") {
    assert(IdCodec.indexBits(singletons(Seq.fill(5)(7)), rects = 0) == 40 + 5 * 32 + 5)
    // one posting of ids 1..100: the first id and every gap are the symbol 1
    assert(IdCodec.indexBits(Seq((1 to 100).toArray), rects = 1) == 40 + 32 + 100 + 256)
  }

  test("Huffman: a one-symbol Int.MinValue alphabet gets a 1-bit code") {
    assert(IdCodec.indexBits(Seq(Array(Int.MinValue)), rects = 0) == 40 + 32 + 1)
    // Int.MinValue, then 0 - Int.MinValue, which wraps to Int.MinValue
    assert(IdCodec.indexBits(Seq(Array(Int.MinValue, 0)), rects = 0) == 40 + 32 + 2)
  }

  test("indexBits sizes postings whose gap symbols include Int.MinValue") {
    // -1 then Int.MaxValue: the gap wraps to Int.MinValue, which occurs 3
    // times; -1, 5, 3 and 1 once each: merges 2 + 2 + 4 + 7 = 15 bits
    val postings = Seq(Array(-1, Int.MaxValue), Array(Int.MinValue, 0, 5), Array(3, 4))
    assert(IdCodec.indexBits(postings, rects = 2) == 5 * 40 + 3 * 32 + 2 * 256 + 15)
  }

  test("delta+Huffman compresses dense consecutive id lists well") {
    val ids = (100 until 600).toArray // the symbol 100, then 499 gaps of 1
    val bits = IdCodec.indexBits(Seq(ids), rects = 0)
    assert(bits == 2 * 40 + 32 + 500)
    // about 1 bit per id beats 32-bit raw ids by a wide margin
    assert(bits < ids.length.toLong * 8, s"bits=$bits")
  }

  test("IdCodec on empty posting") {
    assert(IdCodec.indexBits(Nil, rects = 3) == 3 * 256)            // rectangles alone
    assert(IdCodec.indexBits(Seq(Array.empty[Int]), rects = 0) == 40 + 32) // a table of one symbol
    assert(IdCodec.indexBits(Seq(Array(1, 2), Array.empty[Int]), rects = 0) == 40 + 2 * 32 + 2)
  }
}
