package repro.query

import repro.core._
import repro.data.TrajDataset
import scala.util.Random

/** A spatio-temporal range query (Def. 5.2): the grid cell of (x, y) at t. */
final case class Strq(x: Double, y: Double, t: Int)

/** STRQ / TPQ processing over reconstructed summaries plus the evaluation
  * metrics used in §6.2 (precision, recall, MAE, visited ratio). The g_c
  * grid is anchored at the dataset bounding-box origin. */
object Queries {

  def cellOf(p: Pt, origin: Pt, gc: Double): (Long, Long) =
    (math.floor((p.x - origin.x) / gc).toLong, math.floor((p.y - origin.y) / gc).toLong)

  /** Ground truth: trajectory ids whose RAW point at t shares the query's cell. */
  def groundTruth(data: TrajDataset, q: Strq, gc: Double): Set[Int] = {
    val origin = Pt(data.bbox.x0, data.bbox.y0)
    val qc = cellOf(Pt(q.x, q.y), origin, gc)
    (0 until data.numTrajs).filter(i => cellOf(data.point(i, q.t), origin, gc) == qc).toSet
  }

  /** Approximate STRQ: ids whose reconstructed point falls in the query cell. */
  def approxByCell(recon: collection.Map[(Int, Int), Pt], data: TrajDataset, q: Strq, gc: Double): Set[Int] = {
    val origin = Pt(data.bbox.x0, data.bbox.y0)
    val qc = cellOf(Pt(q.x, q.y), origin, gc)
    (0 until data.numTrajs).filter { i =>
      recon.get((i, q.t)).exists(p => cellOf(p, origin, gc) == qc)
    }.toSet
  }

  /** Local search (§5.2): candidates are reconstructions inside the query
    * cell *dilated* by the CQC bound r = (√2/2)·g_s — any raw point in the
    * cell has its refined reconstruction within r of it, so recall is 1. */
  def localSearchCandidates(recon: collection.Map[(Int, Int), Pt], data: TrajDataset,
                            q: Strq, gc: Double, radius: Double): Set[Int] = {
    val origin = Pt(data.bbox.x0, data.bbox.y0)
    val qc = cellOf(Pt(q.x, q.y), origin, gc)
    val cx0 = origin.x + qc._1 * gc - radius
    val cx1 = origin.x + (qc._1 + 1) * gc + radius
    val cy0 = origin.y + qc._2 * gc - radius
    val cy1 = origin.y + (qc._2 + 1) * gc + radius
    (0 until data.numTrajs).filter { i =>
      recon.get((i, q.t)).exists(p => p.x >= cx0 && p.x < cx1 && p.y >= cy0 && p.y < cy1)
    }.toSet
  }

  /** Exact refinement: access the raw trajectory of each candidate and keep
    * those truly in the query cell — precision and recall become 1 when the
    * candidate set had recall 1 (§5.2). */
  def refineWithRaw(cands: Set[Int], data: TrajDataset, q: Strq, gc: Double): Set[Int] = {
    val origin = Pt(data.bbox.x0, data.bbox.y0)
    val qc = cellOf(Pt(q.x, q.y), origin, gc)
    cands.filter(i => cellOf(data.point(i, q.t), origin, gc) == qc)
  }

  def precisionRecall(returned: Set[Int], truth: Set[Int]): (Double, Double) = {
    if (returned.isEmpty && truth.isEmpty) return (1.0, 1.0)
    val hit = (returned & truth).size.toDouble
    val p = if (returned.isEmpty) 0.0 else hit / returned.size
    val r = if (truth.isEmpty) 1.0 else hit / truth.size
    (p, r)
  }

  /** Mean absolute error between reconstruction and raw points, metres. */
  def maeMeters(recon: collection.Map[(Int, Int), Pt], data: TrajDataset): Double = {
    var s = 0.0
    var n = 0L
    for (t <- 1 to data.len; i <- 0 until data.numTrajs) {
      recon.get((i, t)).foreach { p => s += Geo.toMeters(p.dist(data.point(i, t))); n += 1 }
    }
    if (n == 0) 0.0 else s / n
  }

  /** Queries sampled at actual trajectory positions (so truth is nonempty). */
  def sampleQueries(data: TrajDataset, nQ: Int, seed: Long): Seq[Strq] = {
    val rng = new Random(seed)
    Seq.fill(nQ) {
      val i = rng.nextInt(data.numTrajs)
      val t = 1 + rng.nextInt(data.len)
      val p = data.point(i, t)
      Strq(p.x, p.y, t)
    }
  }

  /** Table 3: MAE (metres) of reconstructed sub-trajectories over the l
    * points following sampled (id, t) STRQ hits (Def. 5.3). */
  def tpqMae(recon: collection.Map[(Int, Int), Pt], data: TrajDataset,
             nQ: Int, l: Int, seed: Long): Double = {
    val rng = new Random(seed)
    var s = 0.0
    var n = 0L
    for (_ <- 0 until nQ) {
      val i = rng.nextInt(data.numTrajs)
      val t0 = 1 + rng.nextInt(math.max(1, data.len - l))
      for (t <- (t0 + 1) to math.min(data.len, t0 + l)) {
        recon.get((i, t)).foreach { p => s += Geo.toMeters(p.dist(data.point(i, t))); n += 1 }
      }
    }
    if (n == 0) 0.0 else s / n
  }

  /** Table 4: average fraction of trajectories whose reconstruction lies
    * within `radius` of the query point — the candidate set an exact-match
    * query must visit after pruning with the summary-as-index. */
  def visitedRatio(recon: collection.Map[(Int, Int), Pt], data: TrajDataset,
                   qs: Seq[Strq], radius: Double): Double = {
    if (qs.isEmpty) return 0.0
    val ratios = qs.map { q =>
      val qp = Pt(q.x, q.y)
      val c = (0 until data.numTrajs).count(i => recon.get((i, q.t)).exists(_.dist(qp) <= radius))
      c.toDouble / data.numTrajs
    }
    ratios.sum / ratios.size
  }

  /** Maximum observed reconstruction deviation (degrees) — the pruning
    * radius a method without an analytic bound must use for exact queries. */
  def maxDeviationDeg(recon: collection.Map[(Int, Int), Pt], data: TrajDataset): Double = {
    var m = 0.0
    for (t <- 1 to data.len; i <- 0 until data.numTrajs)
      recon.get((i, t)).foreach { p => val d = p.dist(data.point(i, t)); if (d > m) m = d }
    m
  }
}
