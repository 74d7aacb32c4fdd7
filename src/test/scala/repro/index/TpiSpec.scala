package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TrajGen

class TpiSpec extends AnyFunSuite {

  private val gc = Geo.toDegrees(100.0)

  test("periods cover the full timeline without gaps or overlap") {
    val data = TrajGen.portoLike(60, 40, seed = 21)
    val tpi = new TpiIndex(epsS = 0.1, gc = gc, epsC = 0.5, epsD = 0.5)
    for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
    val ps = tpi.periods
    assert(ps.head.start == 1 && ps.last.end == data.len)
    for (i <- 1 until ps.length) assert(ps(i).start == ps(i - 1).end + 1)
    for (t <- 1 to data.len) assert(tpi.periodOf(t).isDefined)
    for (t <- 0 to data.len + 1)
      assert(tpi.periodIndex(t) == ps.indexWhere(p => p.start <= t && t <= p.end), s"t=$t")
    assert(new TpiIndex(epsS = 0.1, gc = gc, epsC = 0.5, epsD = 0.5).periodIndex(1) == -1)
  }

  test("every point is queryable at its own timestamp") {
    val data = TrajGen.portoLike(50, 30, seed = 22)
    val tpi = new TpiIndex(epsS = 0.1, gc = gc, epsC = 0.5, epsD = 0.5)
    for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
    var missing = 0
    for (t <- 1 to data.len; (id, p) <- data.pointsAt(t))
      if (!tpi.query(p, t).contains(id)) missing += 1
    assert(missing == 0, s"$missing points unreachable")
  }

  test("query result equals brute-force cell membership within the index's region") {
    val data = TrajGen.portoLike(40, 20, seed = 23)
    val tpi = new TpiIndex(epsS = 0.1, gc = gc, epsC = 0.5, epsD = 0.5)
    for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
    for (t <- Seq(3, 10, 17); (id, p) <- data.pointsAt(t).take(10)) {
      val got = tpi.query(p, t).toSet
      val pi = tpi.periodOf(t).get.pi
      val r = pi.regionOf(p)
      val cell = pi.regions(r).cellOf(p)
      val expected = data.pointsAt(t).filter { case (_, q) =>
        pi.regionOf(q) == r && pi.regions(r).cellOf(q) == cell
      }.map(_._1).toSet
      assert(got == expected)
      assert(got.contains(id))
    }
  }

  test("stationary data reuses one period (no rebuilds)") {
    val p = Array.tabulate(50)(i => (i, Pt(0.1 + (i % 10) * 0.01, 0.1 + (i / 10) * 0.01)))
    val tpi = new TpiIndex(epsS = 1.0, gc = 0.01, epsC = 0.5, epsD = 0.5)
    for (t <- 1 to 20) tpi.step(t, p)
    assert(tpi.numPeriods == 1)
    assert(tpi.rebuilds == 0)
  }

  test("a mass exodus from the indexed regions triggers a rebuild") {
    val near = Array.tabulate(50)(i => (i, Pt(0.1 + (i % 10) * 0.01, 0.1 + (i / 10) * 0.01)))
    val far = near.map { case (id, p) => (id, Pt(p.x + 10.0, p.y + 10.0)) }
    val tpi = new TpiIndex(epsS = 1.0, gc = 0.01, epsC = 0.5, epsD = 0.5)
    tpi.step(1, near)
    tpi.step(2, far) // everyone left: ADR = 1 > epsD
    assert(tpi.rebuilds == 1)
    assert(tpi.numPeriods == 2)
    assert(tpi.periods(0).end == 1 && tpi.periods(1).start == 2)
  }

  test("a few newcomers outside coverage trigger Insertion, not rebuild") {
    val near = Array.tabulate(50)(i => (i, Pt(0.1 + (i % 10) * 0.01, 0.1 + (i / 10) * 0.01)))
    val withNew = near ++ Array((100, Pt(5.0, 5.0)), (101, Pt(5.01, 5.0)))
    val tpi = new TpiIndex(epsS = 1.0, gc = 0.01, epsC = 0.5, epsD = 0.5)
    tpi.step(1, near)
    tpi.step(2, withNew)
    assert(tpi.rebuilds == 0)
    assert(tpi.insertions == 1)
    assert(tpi.query(Pt(5.0, 5.0), 2).contains(100))
  }

  test("higher epsD tolerates more drift (fewer periods)") {
    val data = TrajGen.portoLike(60, 40, seed = 24)
    def periods(epsD: Double): Int = {
      val tpi = new TpiIndex(epsS = 0.02, gc = gc, epsC = 0.3, epsD = epsD)
      for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
      tpi.numPeriods
    }
    assert(periods(0.9) <= periods(0.1))
  }

  test("higher epsC flags fewer regions (fewer periods)") {
    val data = TrajGen.portoLike(60, 40, seed = 25)
    def periods(epsC: Double): Int = {
      val tpi = new TpiIndex(epsS = 0.02, gc = gc, epsC = epsC, epsD = 0.3)
      for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
      tpi.numPeriods
    }
    assert(periods(0.9) <= periods(0.1))
  }

  test("ADR formula: half the regions emptied with epsC=0.5 gives ADR=0.5") {
    // two separated clusters -> (at least) two regions; empty one of them
    val a = Array.tabulate(20)(i => (i, Pt(0.0 + i * 0.001, 0.0)))
    val b = Array.tabulate(20)(i => (100 + i, Pt(5.0 + i * 0.001, 5.0)))
    val tpi = new TpiIndex(epsS = 1.0, gc = 0.01, epsC = 0.5, epsD = 0.6)
    tpi.step(1, a ++ b)
    val pi = tpi.periods.head.pi
    val cls = pi.classify(a)
    val adr = tpi.adr(pi, pi.countsByRegion(cls)) // cluster b gone
    assert(adr > 0.0 && adr <= 1.0)
  }

  test("sizeMB is positive and grows with data volume") {
    val data = TrajGen.portoLike(50, 20, seed = 26)
    val tpi = new TpiIndex(epsS = 0.1, gc = gc, epsC = 0.5, epsD = 0.5)
    for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
    assert(tpi.sizeMB > 0)
  }

  test("query outside any period returns empty") {
    val tpi = new TpiIndex(epsS = 0.1, gc = gc, epsC = 0.5, epsD = 0.5)
    tpi.step(1, Array((0, Pt(0.5, 0.5))))
    assert(tpi.query(Pt(0.5, 0.5), 99).isEmpty)
  }
}
