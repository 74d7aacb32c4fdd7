package repro.index

import repro.core._
import scala.collection.mutable

/** One non-overlapping sub-region R_n of Alg. 3, gridded at g_c. */
final case class GridRegion(rect: Rect, gc: Double) {
  private val nx = math.max(1.0, math.ceil(rect.width / gc - 1e-12))
  private val ny = math.max(1.0, math.ceil(rect.height / gc - 1e-12))
  require(gc > 0 && nx * ny <= Int.MaxValue, s"g_c = $gc over $rect gives ${nx * ny} cells; at most ${Int.MaxValue} fit")
  val cellsX: Int = nx.toInt
  val cellsY: Int = ny.toInt
  def numCells: Int = cellsX * cellsY
  def cellX(p: Pt): Int = math.min(cellsX - 1, math.max(0, math.floor((p.x - rect.x0) / gc).toInt))
  def cellY(p: Pt): Int = math.min(cellsY - 1, math.max(0, math.floor((p.y - rect.y0) / gc).toInt))
  def cellOf(p: Pt): (Int, Int) = (cellX(p), cellY(p))
}

/** Partition-based index at one (or, under TPI reuse, several) timestamps:
  * non-overlapping rectangles from ε_s partitions, each with a g_c grid
  * whose cells hold per-timestamp sorted trajectory-id postings
  * (delta + Huffman compressed for the size accounting).
  *
  * Cells are numbered across the index: region r's cell (cx, cy) is
  * `cellBase(r) + cx·cellsY + cy`. A posting is the slot of its
  * (t, cell) key in a `SlotTable`; per slot the index keeps the sorted ids
  * and the region. */
final class PiIndex(val gc: Double) {
  val regions = mutable.ArrayBuffer.empty[GridRegion]
  /** TRD baseline densities d(R, t_s) captured when each region was created. */
  val baseDensity = mutable.ArrayBuffer.empty[Double]
  private var cellBase = new Array[Long](16)
  private var totalCells = 0L
  private val slots = new SlotTable
  private var postings = new Array[Array[Int]](16)
  private var postingRegion = new Array[Int](16)

  def numRegions: Int = regions.length

  /** t in the high 32 bits, the cell in the low 32: injective while the
    * index has at most 2³² cells (`addRegion`). */
  private def key(t: Int, r: Int, cx: Int, cy: Int): Long =
    (t.toLong << 32) | (cellBase(r) + cx.toLong * regions(r).cellsY + cy)

  /** Index of the region containing p, or -1 (regions are disjoint). */
  def regionOf(p: Pt): Int = {
    var i = 0
    while (i < regions.length) { if (regions(i).rect.contains(p)) return i; i += 1 }
    -1
  }

  /** Region index per point (-1 = uncovered). */
  def classify(pts: Array[(Int, Pt)]): Array[Int] = {
    val cls = new Array[Int](pts.length)
    var i = 0
    while (i < pts.length) { cls(i) = regionOf(pts(i)._2); i += 1 }
    cls
  }

  /** Per-region point counts given a classification. */
  def countsByRegion(cls: Array[Int]): Array[Int] = {
    val c = new Array[Int](regions.length)
    cls.foreach(r => if (r >= 0) c(r) += 1)
    c
  }

  /** Insert covered points' ids into their (t, cell) postings. A cell's
    * first insert keeps its ids sorted, duplicates included; a later insert
    * at the same t leaves the sorted distinct union of old and new ids. */
  def insert(t: Int, pts: Array[(Int, Pt)], cls: Array[Int]): Unit = {
    // (slot, id) with the slot in the high 32 bits and the id, sign bit
    // flipped, in the low 32: one sort orders by slot, then by signed id.
    val pairs = new Array[Long](pts.length)
    var n = 0
    var i = 0
    while (i < pts.length) {
      val r = cls(i)
      if (r >= 0) {
        val p = pts(i)._2
        val s = slots.slotOrAdd(key(t, r, regions(r).cellX(p), regions(r).cellY(p)))
        if (s == postings.length) {
          postings = java.util.Arrays.copyOf(postings, 2 * s)
          postingRegion = java.util.Arrays.copyOf(postingRegion, 2 * s)
        }
        postingRegion(s) = r
        pairs(n) = (s.toLong << 32) | ((pts(i)._1 ^ Int.MinValue) & 0xffffffffL)
        n += 1
      }
      i += 1
    }
    java.util.Arrays.sort(pairs, 0, n)
    var a = 0
    while (a < n) {
      val s = (pairs(a) >>> 32).toInt
      var b = a + 1
      while (b < n && (pairs(b) >>> 32).toInt == s) b += 1
      val ids = new Array[Int](b - a)
      var j = 0
      while (j < ids.length) { ids(j) = pairs(a + j).toInt ^ Int.MinValue; j += 1 }
      postings(s) = if (postings(s) == null) ids else (postings(s) ++ ids).distinct.sorted
      a = b
    }
  }

  def addRegion(r: GridRegion, density: Double): Int = {
    require(totalCells + r.numCells <= (1L << 32), s"a PI holds at most 2^32 cells; $r would pass that")
    if (regions.length == cellBase.length) cellBase = java.util.Arrays.copyOf(cellBase, 2 * regions.length)
    cellBase(regions.length) = totalCells
    totalCells += r.numCells
    regions += r
    baseDensity += density
    regions.length - 1
  }

  private def posting(t: Int, r: Int, cx: Int, cy: Int): Array[Int] = {
    val s = slots.slot(key(t, r, cx, cy))
    if (s < 0) Array.emptyIntArray else postings(s)
  }

  /** Trajectory ids indexed at the cell of p at time t (Def. 5.2 lookup). */
  def query(p: Pt, t: Int): Array[Int] = {
    val r = regionOf(p)
    if (r < 0) Array.emptyIntArray else posting(t, r, regions(r).cellX(p), regions(r).cellY(p))
  }

  /** Ids in the cell of p and its 8 neighbours at t (local-search support). */
  def queryWithNeighbors(p: Pt, t: Int): Array[Int] = {
    val r = regionOf(p)
    if (r < 0) return Array.emptyIntArray
    val g = regions(r)
    val cx = g.cellX(p); val cy = g.cellY(p)
    val out = mutable.ArrayBuilder.make[Int]
    var x = cx - 1
    while (x <= cx + 1) {
      var y = cy - 1
      while (y <= cy + 1) {
        if (x >= 0 && x < g.cellsX && y >= 0 && y < g.cellsY) out ++= posting(t, r, x, y)
        y += 1
      }
      x += 1
    }
    out.result().distinct
  }

  /** Ids posted in each region, over all its cells and timestamps. */
  def postedByRegion: Array[Int] = {
    val c = new Array[Int](regions.length)
    var s = 0
    while (s < slots.size) { c(postingRegion(s)) += postings(s).length; s += 1 }
    c
  }

  /** Compressed size of the postings and the region rectangles. */
  def sizeBits: Long = IdCodec.indexBits(postings.view.take(slots.size), regions.length)
}

/** Algorithm 3: build a PI over the points of one timestamp. */
object Pi {

  /** Partition pts with threshold ε_s (Eq. 7 with ε_s), take each subset's
    * minimum bounding rectangle, and resolve overlaps by rectangle
    * subtraction (remove_overlap, [17]). */
  private def disjointRects(pts: Array[(Int, Pt)], epsS: Double, seed: Long): mutable.ArrayBuffer[Rect] = {
    val kept = mutable.ArrayBuffer.empty[Rect]
    if (pts.isEmpty) return kept
    val vecs = pts.map { case (_, p) => Array(p.x, p.y) }
    val res = Partitioner.partitionByThreshold(vecs, epsS, seed = seed)
    val (start, idx) = MathUtil.buckets(res.assign, res.centroids.length)
    for (g <- res.centroids.indices if start(g) < start(g + 1))
      kept ++= Rect.subtractAll(Rect.bounding(idx.view.slice(start(g), start(g + 1)).map(pts(_)._2)), kept)
    kept
  }

  /** Adds `rects` to pi as regions and indexes pts at t. A new region's
    * TRD baseline is its points (at least `minCount`) per cell, counted
    * from the classification the insert uses: regions are disjoint, so
    * that counts the points each one contains. */
  private def index(pi: PiIndex, t: Int, pts: Array[(Int, Pt)], rects: Iterable[Rect], minCount: Double): Unit = {
    val first = pi.numRegions
    rects.foreach(r => pi.addRegion(GridRegion(r, pi.gc), 0.0))
    val cls = pi.classify(pts)
    val counts = pi.countsByRegion(cls)
    for (i <- first until pi.numRegions)
      pi.baseDensity(i) = math.max(counts(i).toDouble, minCount) / pi.regions(i).numCells
    pi.insert(t, pts, cls)
  }

  def build(t: Int, pts: Array[(Int, Pt)], epsS: Double, gc: Double, seed: Long = 23): PiIndex = {
    val pi = new PiIndex(gc)
    index(pi, t, pts, disjointRects(pts, epsS, seed), minCount = 0.0)
    pi
  }

  /** "Insertion" (Alg. 4, lines 10–11): extend an existing PI with new
    * regions covering the uncovered points, subtracting existing regions
    * so coverage stays disjoint, then index those points. */
  def insertUncovered(pi: PiIndex, t: Int, uncovered: Array[(Int, Pt)], epsS: Double, seed: Long = 27): Unit = {
    if (uncovered.isEmpty) return
    val existing = pi.regions.map(_.rect)
    index(pi, t, uncovered, disjointRects(uncovered, epsS, seed).flatMap(Rect.subtractAll(_, existing)), minCount = 1.0)
  }
}
