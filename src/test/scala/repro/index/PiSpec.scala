package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TrajGen
import scala.util.Random

class PiSpec extends AnyFunSuite {

  private def pts(seed: Int, n: Int = 120): Array[(Int, Pt)] = {
    val rng = new Random(seed)
    Array.tabulate(n)(i => (i, Pt(rng.nextDouble() * 2, rng.nextDouble() * 2)))
  }

  test("GridRegion cell mapping stays in range") {
    val g = GridRegion(Rect(0, 0, 1, 1), 0.3)
    assert(g.cellsX == 4 && g.cellsY == 4)
    assert(g.cellOf(Pt(0, 0)) == ((0, 0)))
    assert(g.cellOf(Pt(0.99, 0.99)) == ((3, 3)))
    assert(g.cellOf(Pt(0.31, 0.0)) == ((1, 0)))
  }

  test("GridRegion rejects a g_c that gives more cells than an Int counts") {
    assert(GridRegion(Rect(0, 0, 46340, 46340), 1.0).numCells == 46340 * 46340)
    for ((rect, gc) <- Seq(Rect(0, 0, 46341, 46341) -> 1.0, Rect(0, 0, 1, 1) -> 1e-9, Rect(0, 0, 1, 1) -> 0.0)) {
      val e = intercept[IllegalArgumentException](GridRegion(rect, gc))
      assert(e.getMessage.contains(rect.toString) && e.getMessage.contains(s"g_c = $gc"), e.getMessage)
    }
  }

  test("a PI rejects a region that would number more than 2^32 cells") {
    val pi = new PiIndex(1.0)
    val big = GridRegion(Rect(0, 0, 46340, 46340), 1.0)
    pi.addRegion(big, 0.0); pi.addRegion(big, 0.0)
    intercept[IllegalArgumentException](pi.addRegion(big, 0.0))
  }

  test("regions built by Pi are pairwise disjoint") {
    val p = pts(1)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    val rects = pi.regions.map(_.rect).toSeq
    for (Seq(a, b) <- rects.combinations(2)) assert(!a.intersects(b), s"$a overlaps $b")
  }

  test("every build point is covered by exactly one region") {
    val p = pts(2)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    for ((_, pt) <- p) {
      val n = pi.regions.count(_.rect.contains(pt))
      assert(n == 1, s"point $pt covered by $n regions")
    }
  }

  test("query returns exactly the ids sharing the cell") {
    val p = pts(3)
    val gc = 0.1
    val pi = Pi.build(1, p, epsS = 0.5, gc = gc)
    for ((id, pt) <- p.take(30)) {
      val got = pi.query(pt, 1).toSet
      assert(got.contains(id))
      // brute force: same region, same cell
      val r = pi.regionOf(pt)
      val cell = pi.regions(r).cellOf(pt)
      val expected = p.filter { case (_, q) => pi.regionOf(q) == r && pi.regions(r).cellOf(q) == cell }
        .map(_._1).toSet
      assert(got == expected)
    }
  }

  test("query at a different timestamp is empty") {
    val p = pts(4)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    assert(pi.query(p(0)._2, 2).isEmpty)
  }

  test("queryWithNeighbors is a superset of query") {
    val p = pts(5)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    for ((_, pt) <- p.take(20))
      assert(pi.query(pt, 1).toSet.subsetOf(pi.queryWithNeighbors(pt, 1).toSet))
  }

  test("insert accumulates ids without duplicates") {
    val p = pts(6, 40)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    pi.insert(1, p, pi.classify(p)) // duplicate insert
    for ((id, pt) <- p.take(10)) {
      val ids = pi.query(pt, 1)
      assert(ids.distinct.length == ids.length)
      assert(ids.contains(id))
    }
    // each region posts its points once per timestamp
    val perRegion = pi.countsByRegion(pi.classify(p)).toSeq
    assert(pi.postedByRegion.toSeq == perRegion)
    pi.insert(2, p, pi.classify(p))
    assert(pi.postedByRegion.toSeq == perRegion.map(_ * 2))
  }

  test("insertUncovered extends coverage disjointly") {
    val near = Array.tabulate(50)(i => (i, Pt(0.1 + i * 0.001, 0.1)))
    val pi = Pi.build(1, near, epsS = 0.5, gc = 0.05)
    val far = Array.tabulate(20)(i => (100 + i, Pt(5.0 + i * 0.01, 5.0)))
    assert(far.forall { case (_, p) => pi.regionOf(p) < 0 })
    Pi.insertUncovered(pi, 2, far, epsS = 0.5)
    for ((id, p) <- far) {
      assert(pi.regionOf(p) >= 0)
      assert(pi.query(p, 2).contains(id))
    }
    val rects = pi.regions.map(_.rect).toSeq
    for (Seq(a, b) <- rects.combinations(2)) assert(!a.intersects(b))
  }

  test("baseDensity is recorded per region") {
    val p = pts(7)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    assert(pi.baseDensity.length == pi.numRegions)
    assert(pi.baseDensity.forall(_ > 0))
  }

  test("sizeBits grows with postings") {
    val p = pts(8, 60)
    val pi1 = Pi.build(1, p.take(20), epsS = 0.5, gc = 0.1)
    val pi2 = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    assert(pi1.sizeBits > 0 && pi2.sizeBits > 0)
  }

  test("classify marks uncovered points with -1") {
    val p = pts(9, 30)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    val cls = pi.classify(Array((999, Pt(50, 50))))
    assert(cls(0) == -1)
  }

  test("countsByRegion sums to covered points") {
    val p = pts(10)
    val pi = Pi.build(1, p, epsS = 0.5, gc = 0.1)
    val cls = pi.classify(p)
    assert(pi.countsByRegion(cls).sum == cls.count(_ >= 0))
    assert(cls.count(_ >= 0) == p.length)
  }

  test("Pi on a real trajectory snapshot covers all points") {
    val data = TrajGen.portoLike(60, 10, seed = 12)
    val p = data.pointsAt(5)
    val pi = Pi.build(5, p, epsS = 0.1, gc = Geo.toDegrees(100.0))
    assert(p.forall { case (_, pt) => pi.regionOf(pt) >= 0 })
    assert(p.forall { case (id, pt) => pi.query(pt, 5).contains(id) })
  }
}
