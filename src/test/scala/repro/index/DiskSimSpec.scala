package repro.index

import org.scalacheck.{Gen, Prop, Shrink, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class DiskSimSpec extends AnyFunSuite {

  /** 1 MB pages, the paper's page size, which the byte counts below assume. */
  private val PageBytes = 1 << 20

  test("small groups share pages; large groups span several") {
    val layout = new DiskSim.Layout[String](PageBytes)
    layout.add("a", 10)            // 200 bytes
    layout.add("b", 10)            // fits on the same page
    layout.add("big", 200000)      // ~4 MB -> 4+ pages
    assert(layout.pages("a") == layout.pages("b"))
    assert(layout.pages("big").length >= 4)
  }

  test("page count follows total bytes") {
    val layout = new DiskSim.Layout[Int](PageBytes)
    val ptsPerPage = PageBytes / DiskSim.BytesPerPoint
    layout.add(1, ptsPerPage * 3)
    assert(layout.pages(1).length >= 3 && layout.pages(1).length <= 4)
  }

  test("empty group still addresses a page") {
    val layout = new DiskSim.Layout[Int](PageBytes)
    layout.add(5, 0)
    assert(layout.pages(5).nonEmpty)
  }

  test("runQueries counts distinct pages per query and misses cost nothing") {
    val layout = new DiskSim.Layout[Int](PageBytes)
    layout.add(1, 100)
    layout.add(2, 200000) // several pages
    val queries = Seq((Pt(0, 0), 1), (Pt(0, 0), 2), (Pt(0, 0), 3))
    val stats = DiskSim.runQueries[Int](queries, {
      case (_, 1) => Some(1)
      case (_, 2) => Some(2)
      case _ => None
    }, layout)
    assert(stats.ios == layout.pages(1).length + layout.pages(2).length)
    assert(stats.responseMillis >= 0)
  }

  test("grouping granularity drives I/O: coarse groups cost more per query") {
    // same data, two layouts: per-(t) fine groups vs one coarse group
    val fine = new DiskSim.Layout[Int](PageBytes)
    for (t <- 1 to 100) fine.add(t, 6000) // ~120KB each
    val coarse = new DiskSim.Layout[Int](PageBytes)
    coarse.add(0, 600000) // all together ~12MB
    val queries = (1 to 50).map(t => (Pt(0, 0), t))
    val fineStats = DiskSim.runQueries[Int](queries, { case (_, t) => Some(t) }, fine)
    val coarseStats = DiskSim.runQueries[Int](queries, { case (_, _) => Some(0) }, coarse)
    assert(fineStats.ios < coarseStats.ios,
      s"fine=${fineStats.ios} coarse=${coarseStats.ios}")
  }

  /** Each group's pages from `Layout` and from the page-by-page reference. */
  private def bothLayouts(pageBytes: Int, sizes: Seq[Int]): (Seq[Seq[Int]], Seq[Seq[Int]]) = {
    val layout = new DiskSim.Layout[Int](pageBytes)
    val ref = new ReferenceDiskLayout[Int](pageBytes)
    for ((n, k) <- sizes.zipWithIndex) { layout.add(k, n); ref.add(k, n) }
    (sizes.indices.map(layout.pages), sizes.indices.map(ref.pages))
  }

  test("pages follow the page-by-page reference on a page that fills exactly") {
    // 5 points a page: group 0 fills page 0 and group 1 (empty) stays on
    // it; group 2 rolls on; group 3 spans pages 1 to 3 and fills the last,
    // and group 4 (empty) stays on page 3.
    val sizes = Seq(5, 0, 3, 12, 0, 1)
    val (got, want) = bothLayouts(100, sizes)
    assert(got == want)
    assert(got == Seq(Seq(0), Seq(0), Seq(1), Seq(1, 2, 3), Seq(3), Seq(4)))
  }

  test("pages equal the page-by-page reference for any sequence of group sizes") {
    // Pages of 1 to 6 points, or of a size no point count fills; groups of
    // 0 points, of a page or less, and of several pages.
    val pageBytes = Gen.oneOf(Gen.choose(1, 6).map(_ * DiskSim.BytesPerPoint), Gen.oneOf(30, 70, 8192))
    val size = Gen.frequency(3 -> Gen.const(0), 6 -> Gen.choose(1, 12), 2 -> Gen.choose(13, 60),
                             1 -> Gen.choose(400, 1000))
    // How often the cases the page arithmetic turns on come up.
    var afterFull, emptyAfterFull, endsOnBoundary, multiPage = 0
    val groups = for (pb <- pageBytes; sizes <- Gen.listOf(size)) yield (pb, sizes)
    // Shrink the group sizes only, and never below 0 points.
    def shrink(g: (Int, List[Int])) = Shrink.shrink(g._2).filter(_.forall(_ >= 0)).map((g._1, _))
    val prop = Prop.forAllShrink(groups, shrink) { case (pb, sizes) =>
      var bytes = 0L
      for (n <- sizes) {
        val b = n.toLong * DiskSim.BytesPerPoint
        if (bytes > 0 && bytes % pb == 0) { afterFull += 1; if (b == 0) emptyAfterFull += 1 }
        if (b > 0 && (bytes + b) % pb == 0) endsOnBoundary += 1
        if (b > pb) multiPage += 1
        bytes += b
      }
      val (got, want) = bothLayouts(pb, sizes)
      (got == want) :| s"page size $pb, groups $sizes: got $got, want $want"
    }
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(20261021L), prop)
    assert(r.passed, Pretty.pretty(r))
    assert(afterFull > 0 && emptyAfterFull > 0 && endsOnBoundary > 0 && multiPage > 0,
      s"afterFull=$afterFull emptyAfterFull=$emptyAfterFull endsOnBoundary=$endsOnBoundary multiPage=$multiPage")
  }
}
