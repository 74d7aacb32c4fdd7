package repro.index

import repro.core._
import scala.collection.mutable

/** Disk-resident layout simulation for Table 9 (§5.1 end, §6.5).
  *
  * Trajectory points are serialized at `BytesPerPoint` into fixed-size
  * pages. Each index style groups points differently, which is exactly
  * what drives the paper's I/O differences:
  *   - TPI: one block per (period, region) — a query scans the pages of
  *     its period's region (several timestamps share the block);
  *   - PI (per-timestamp): one block per (t, region) — the fewest pages
  *     per query, at a much higher build cost;
  *   - TrajStore: one block per quadtree leaf over ALL timestamps — a
  *     spatial cell accumulates a large time range, so a query touches
  *     many pages.
  * I/Os = pages read; response time = measured wall time of scanning the
  * touched pages in an in-memory byte store.
  *
  * The paper uses 1 MB pages over 74M/25M-point datasets; our substrate
  * is ~10^3× smaller, so Table 9 uses proportionally smaller pages (8 KB)
  * to keep blocks multi-page — the quantity being reproduced is the
  * per-method page-count ordering, not absolute I/O (DESIGN.md §5).
  */
object DiskSim {

  val PageBytes: Int = 8 * 1024
  val BytesPerPoint: Int = 20

  /** Page ids assigned sequentially to groups of points. A group starts
    * on the current page, or on the next one if the current one is full;
    * an empty group still has the current page as its home page. */
  final class Layout[K](val pageBytes: Int) {
    private val pagesOf = mutable.HashMap.empty[K, Seq[Int]]
    private var nextPage = 0
    private var fill = 0 // bytes used on the current page

    def add(key: K, numPoints: Int): Unit = {
      val bytes = numPoints.toLong * BytesPerPoint
      if (bytes > 0 && fill >= pageBytes) { nextPage += 1; fill = 0 }
      val first = nextPage
      val end = fill + bytes // from the start of page `first` to the group's last byte
      nextPage = first + (math.max(end - 1, 0) / pageBytes).toInt
      fill = (end - (nextPage - first).toLong * pageBytes).toInt
      pagesOf(key) = first to nextPage
    }

    def pages(key: K): Seq[Int] = pagesOf.getOrElse(key, Seq.empty)
  }

  /** Scan cost model: touch every byte of each page once, so measured
    * response time is proportional to pages read (the page store is a
    * single reusable buffer — CPU-side scan time, not allocation). */
  final class PageScanner(pageBytes: Int) {
    private val page = new Array[Byte](pageBytes)
    var checksum = 0L
    def scan(pageIds: Iterable[Int]): Int = {
      var n = 0
      for (_ <- pageIds) {
        var i = 0
        var s = 0L
        while (i < pageBytes) { s += page(i); i += 1 }
        checksum += s
        n += 1
      }
      n
    }
  }

  final case class QueryStats(ios: Long, responseMillis: Long)

  /** Run queries against a layout: `keyOf` maps a query to its block key
    * (None = miss, zero pages). */
  def runQueries[K](queries: Seq[(Pt, Int)], keyOf: ((Pt, Int)) => Option[K],
                    layout: Layout[K]): QueryStats = {
    val scanner = new PageScanner(layout.pageBytes)
    var ios = 0L
    val t0 = System.nanoTime()
    for (q <- queries) {
      keyOf(q) match {
        case Some(k) => ios += scanner.scan(layout.pages(k))
        case None =>
      }
    }
    val ms = (System.nanoTime() - t0) / 1000000
    QueryStats(ios, ms)
  }
}
