package repro.query

import repro.core._
import repro.data.TrajDataset
import scala.util.Random

/** A spatio-temporal range query (Def. 5.2): the grid cell of (x, y) at t. */
final case class Strq(x: Double, y: Double, t: Int) {

  /** The query's g_c cell on the grid anchored at `origin`. */
  def cell(origin: Pt, gc: Double): (Long, Long) = Queries.cellOf(Pt(x, y), origin, gc)

  /** The candidate box of §5.2: the query cell dilated by the CQC bound
    * `radius` on every side. Any raw point in the cell has its refined
    * reconstruction inside, so candidates from the box have recall 1. */
  def box(origin: Pt, gc: Double, radius: Double): Rect = {
    val (cx, cy) = cell(origin, gc)
    Rect(origin.x + cx * gc - radius, origin.y + cy * gc - radius,
         origin.x + (cx + 1) * gc + radius, origin.y + (cy + 1) * gc + radius)
  }
}

/** STRQ / TPQ processing over reconstructed summaries plus the evaluation
  * metrics used in §6.2 (precision, recall, MAE, visited ratio). The g_c
  * grid is anchored at the dataset bounding-box origin. */
object Queries {

  def cellOf(p: Pt, origin: Pt, gc: Double): (Long, Long) =
    (math.floor((p.x - origin.x) / gc).toLong, math.floor((p.y - origin.y) / gc).toLong)

  private def origin(data: TrajDataset): Pt = Pt(data.bbox.x0, data.bbox.y0)

  /** The ids among `ids` whose point at q.t, as `at` gives it, shares q's cell. */
  private def inCell(ids: Iterable[Int], data: TrajDataset, q: Strq, gc: Double)(at: Int => Option[Pt]): Set[Int] = {
    val o = origin(data)
    val qc = q.cell(o, gc)
    ids.filter(i => at(i).exists(p => cellOf(p, o, gc) == qc)).toSet
  }

  /** Ground truth: trajectory ids whose RAW point at t shares the query's cell. */
  def groundTruth(data: TrajDataset, q: Strq, gc: Double): Set[Int] =
    refineWithRaw(0 until data.numTrajs, data, q, gc)

  /** Approximate STRQ: ids whose reconstructed point falls in the query cell. */
  def approxByCell(recon: collection.Map[(Int, Int), Pt], data: TrajDataset, q: Strq, gc: Double): Set[Int] =
    inCell(0 until data.numTrajs, data, q, gc)(i => recon.get((i, q.t)))

  /** Local search (§5.2): candidates are the reconstructions inside the
    * query's candidate box (`Strq.box`). */
  def localSearchCandidates(recon: collection.Map[(Int, Int), Pt], data: TrajDataset,
                            q: Strq, gc: Double, radius: Double): Set[Int] = {
    val box = q.box(origin(data), gc, radius)
    (0 until data.numTrajs).filter(i => recon.get((i, q.t)).exists(box.contains)).toSet
  }

  /** Exact refinement: access the raw trajectory of each candidate and keep
    * those truly in the query cell — precision and recall become 1 when the
    * candidate set had recall 1 (§5.2). */
  def refineWithRaw(cands: Iterable[Int], data: TrajDataset, q: Strq, gc: Double): Set[Int] =
    inCell(cands, data, q, gc)(i => Some(data.point(i, q.t)))

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
