package repro.index

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pt, Rect, ReferencePiIndex}

/** `PiIndex`'s primitive postings must answer every lookup exactly as the
  * boxed-tuple reference does, on inputs built to reach its edge cases:
  * disjoint regions sharing edges, one-cell regions, points on region and
  * cell edges, clamped cells, uncovered points, repeated inserts at one t,
  * duplicate and negative ids. */
class PiEquivalenceSpec extends AnyFunSuite {

  private def check(p: Prop, tests: Int = 500): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20261020L)
    val r = Test.check(params, p)
    assert(r.passed, Pretty.pretty(r))
  }

  /** A side: under one cell, whole cells, one ulp over whole cells (its
    * last cell clamps points that round past it), or continuous. */
  private def side(gc: Double): Gen[Double] = Gen.frequency(
    2 -> Gen.const(gc * 0.4),
    3 -> Gen.choose(1, 4).map(_ * gc),
    2 -> Gen.choose(1, 4).map(k => math.nextUp(k * gc)),
    2 -> Gen.choose(0.1, 4.0).map(_ * gc))

  /** Rectangles in columns left to right, so they are disjoint; a gap of 0
    * makes two regions share an edge. */
  private def rectsGen(gc: Double): Gen[Vector[Rect]] = for {
    n <- Gen.choose(1, 6)
    dims <- Gen.listOfN(n, for {
      w <- side(gc); h <- side(gc)
      gap <- Gen.oneOf(0.0, 0.0, gc * 0.5, gc * 1.7)
      y0 <- Gen.oneOf(-gc, 0.0, gc * 0.5, gc * 2.3)
    } yield (w, h, gap, y0))
  } yield dims.scanLeft((Option.empty[Rect], -2 * gc)) { case ((_, x0), (w, h, gap, y0)) =>
    (Some(Rect(x0, y0, x0 + w, y0 + h)), x0 + w + gap)
  }.flatMap(_._1).toVector

  /** A point of r: on its lower edges, on its upper (open) edges, on a
    * cell edge, one ulp inside the upper corner, or anywhere inside. */
  private def pointIn(r: Rect, gc: Double): Gen[Pt] = {
    def coord(lo: Double, hi: Double): Gen[Double] = Gen.frequency(
      2 -> Gen.oneOf(lo, hi, math.nextDown(hi)),
      2 -> Gen.choose(0, 4).map(k => lo + k * gc),
      3 -> Gen.choose(lo, hi))
    for { x <- coord(r.x0, r.x1); y <- coord(r.y0, r.y1) } yield Pt(x, y)
  }

  private def pointGen(rects: Vector[Rect], gc: Double): Gen[Pt] = Gen.frequency(
    6 -> Gen.oneOf(rects).flatMap(pointIn(_, gc)),
    1 -> Gen.zip(Gen.choose(-20.0, 20.0), Gen.choose(-20.0, 20.0)).map { case (x, y) => Pt(x, y) })

  /** Small ids repeat, so one call holds duplicates. The extremes make
    * gaps that wrap, such as −1 then Int.MaxValue (a gap of Int.MinValue). */
  private val idGen: Gen[Int] = Gen.frequency(
    8 -> Gen.choose(-6, 24),
    1 -> Gen.oneOf(Int.MinValue, Int.MaxValue, -1, 0),
    1 -> Gen.choose(Int.MinValue, Int.MaxValue))

  private val caseGen = for {
    gc <- Gen.oneOf(0.25, 0.5, 1.0, 0.3)
    rects <- rectsGen(gc)
    calls <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, for {
      t <- Gen.choose(-1, 2) // few distinct t, so inserts at one t repeat
      n <- Gen.choose(0, 40)
      pts <- Gen.listOfN(n, Gen.zip(idGen, pointGen(rects, gc)))
    } yield (t, pts.toArray)))
  } yield (gc, rects, calls)

  test("PiIndex equals the boxed-tuple reference on every lookup, count and size") {
    check(Prop.forAllNoShrink(caseGen) { case (gc, rects, calls) =>
      val pi = new PiIndex(gc)
      val ref = new ReferencePiIndex(gc)
      for ((r, i) <- rects.zipWithIndex) {
        val g = GridRegion(r, gc)
        pi.addRegion(g, i.toDouble); ref.addRegion(g, i.toDouble)
      }
      val classified = calls.forall { case (t, pts) =>
        val cls = pi.classify(pts)
        pi.insert(t, pts, cls); ref.insert(t, pts, ref.classify(pts))
        cls.sameElements(ref.classify(pts))
      }
      val probes = calls.flatMap(_._2.map(_._2)) ++ rects.flatMap(r => Seq(Pt(r.x0, r.y0), Pt(r.x1, r.y1)))
      val lookups = for (p <- probes; t <- -1 to 3) yield
        pi.query(p, t).sameElements(ref.query(p, t)) &&
          pi.queryWithNeighbors(p, t).sameElements(ref.queryWithNeighbors(p, t))
      (classified :| "classify") && (lookups.forall(identity) :| "query and queryWithNeighbors") &&
        (pi.postedByRegion.sameElements(ref.postedByRegion) :| "postedByRegion") &&
        ((pi.sizeBits == ref.sizeBits) :| "sizeBits")
    })
  }
}
