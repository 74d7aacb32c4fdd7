package repro.index

import repro.core._
import scala.collection.mutable

/** One non-overlapping sub-region R_n of Alg. 3, gridded at g_c. */
final case class GridRegion(rect: Rect, gc: Double) {
  val cellsX: Int = math.max(1, math.ceil(rect.width / gc - 1e-12).toInt)
  val cellsY: Int = math.max(1, math.ceil(rect.height / gc - 1e-12).toInt)
  def numCells: Int = cellsX * cellsY
  def cellOf(p: Pt): (Int, Int) = (
    math.min(cellsX - 1, math.max(0, math.floor((p.x - rect.x0) / gc).toInt)),
    math.min(cellsY - 1, math.max(0, math.floor((p.y - rect.y0) / gc).toInt)))
}

/** Partition-based index at one (or, under TPI reuse, several) timestamps:
  * non-overlapping rectangles from ε_s partitions, each with a g_c grid
  * whose cells hold per-timestamp sorted trajectory-id postings
  * (delta + Huffman compressed for the size accounting). */
final class PiIndex(val gc: Double) {
  val regions = mutable.ArrayBuffer.empty[GridRegion]
  /** TRD baseline densities d(R, t_s) captured when each region was created. */
  val baseDensity = mutable.ArrayBuffer.empty[Double]
  private val postings = mutable.HashMap.empty[(Int, Int, Int, Int), Array[Int]] // (region,cx,cy,t) -> ids

  def numRegions: Int = regions.length

  /** Index of the region containing p, or -1 (regions are disjoint). */
  def regionOf(p: Pt): Int = {
    var i = 0
    while (i < regions.length) { if (regions(i).rect.contains(p)) return i; i += 1 }
    -1
  }

  /** Region index per point (-1 = uncovered). */
  def classify(pts: Array[(Int, Pt)]): Array[Int] = pts.map { case (_, p) => regionOf(p) }

  /** Per-region point counts given a classification. */
  def countsByRegion(cls: Array[Int]): Array[Int] = {
    val c = new Array[Int](regions.length)
    cls.foreach(r => if (r >= 0) c(r) += 1)
    c
  }

  /** Insert covered points' ids into their (region, cell, t) postings. */
  def insert(t: Int, pts: Array[(Int, Pt)], cls: Array[Int]): Unit = {
    val grouped = mutable.HashMap.empty[(Int, Int, Int, Int), mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < pts.length) {
      val r = cls(i)
      if (r >= 0) {
        val (cx, cy) = regions(r).cellOf(pts(i)._2)
        grouped.getOrElseUpdate((r, cx, cy, t), mutable.ArrayBuffer.empty) += pts(i)._1
      }
      i += 1
    }
    for ((k, ids) <- grouped) {
      val sorted = ids.toArray.sorted
      postings(k) = postings.get(k).map(old => (old ++ sorted).distinct.sorted).getOrElse(sorted)
    }
  }

  def addRegion(r: GridRegion, density: Double): Int = {
    regions += r
    baseDensity += density
    regions.length - 1
  }

  /** Trajectory ids indexed at the cell of p at time t (Def. 5.2 lookup). */
  def query(p: Pt, t: Int): Array[Int] = {
    val r = regionOf(p)
    if (r < 0) return Array.empty
    val (cx, cy) = regions(r).cellOf(p)
    postings.getOrElse((r, cx, cy, t), Array.empty)
  }

  /** Ids in the cell of p and its 8 neighbours at t (local-search support). */
  def queryWithNeighbors(p: Pt, t: Int): Array[Int] = {
    val r = regionOf(p)
    if (r < 0) return Array.empty
    val (cx, cy) = regions(r).cellOf(p)
    val out = mutable.ArrayBuffer.empty[Int]
    var dx = -1
    while (dx <= 1) {
      var dy = -1
      while (dy <= 1) {
        postings.get((r, cx + dx, cy + dy, t)).foreach(out ++= _)
        dy += 1
      }
      dx += 1
    }
    out.distinct.toArray
  }

  /** Ids posted in each region, over all its cells and timestamps. */
  def postedByRegion: Array[Int] = {
    val c = new Array[Int](regions.length)
    for (((r, _, _, _), ids) <- postings) c(r) += ids.length
    c
  }

  /** Compressed size of the postings and the region rectangles. */
  def sizeBits: Long = IdCodec.indexBits(postings.values, regions.length)
}

/** Algorithm 3: build a PI over the points of one timestamp. */
object Pi {

  /** Partition pts with threshold ε_s (Eq. 7 with ε_s), take each subset's
    * minimum bounding rectangle, and resolve overlaps by rectangle
    * subtraction (remove_overlap, [17]). */
  def buildRegions(pts: Array[(Int, Pt)], epsS: Double, gc: Double, seed: Long): Seq[(GridRegion, Double)] = {
    if (pts.isEmpty) return Seq.empty
    val vecs = pts.map { case (_, p) => Array(p.x, p.y) }
    val res = Partitioner.partitionByThreshold(vecs, epsS, seed = seed)
    val byPart = pts.indices.groupBy(res.assign(_))
    val kept = mutable.ArrayBuffer.empty[Rect]
    for ((_, idxs) <- byPart.toSeq.sortBy(_._1)) {
      val bound = Rect.bounding(idxs.map(i => pts(i)._2))
      val pieces = Rect.subtractAll(bound, kept.toSeq)
      kept ++= pieces
    }
    // Densities: count points per final rect (a rect's creation-time TRD).
    kept.toSeq.map { r =>
      val region = GridRegion(r, gc)
      val cnt = pts.count { case (_, p) => r.contains(p) }
      (region, cnt.toDouble / region.numCells)
    }
  }

  def build(t: Int, pts: Array[(Int, Pt)], epsS: Double, gc: Double, seed: Long = 23): PiIndex = {
    val pi = new PiIndex(gc)
    for ((region, d) <- buildRegions(pts, epsS, gc, seed)) pi.addRegion(region, d)
    pi.insert(t, pts, pi.classify(pts))
    pi
  }

  /** "Insertion" (Alg. 4, lines 10–11): extend an existing PI with new
    * regions covering the uncovered points, subtracting existing regions
    * so coverage stays disjoint, then index those points. */
  def insertUncovered(pi: PiIndex, t: Int, uncovered: Array[(Int, Pt)], epsS: Double, seed: Long = 27): Unit = {
    if (uncovered.isEmpty) return
    val existing = pi.regions.map(_.rect).toSeq
    for ((region, _) <- buildRegions(uncovered, epsS, pi.gc, seed)) {
      val pieces = Rect.subtractAll(region.rect, existing)
      for (piece <- pieces) {
        val g = GridRegion(piece, pi.gc)
        val cnt = uncovered.count { case (_, p) => piece.contains(p) }
        pi.addRegion(g, math.max(cnt.toDouble, 1.0) / g.numCells)
      }
    }
    pi.insert(t, uncovered, pi.classify(uncovered))
  }
}
