package repro.index

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
}
