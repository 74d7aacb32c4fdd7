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
  * metrics used in §6.2 (precision, recall, MAE, visited ratio). A
  * reconstruction is a `TrajDataset` over the source bbox, so raw and
  * reconstructed points share the g_c grid anchored at the bbox origin. */
object Queries {

  def cellOf(p: Pt, origin: Pt, gc: Double): (Long, Long) =
    (math.floor((p.x - origin.x) / gc).toLong, math.floor((p.y - origin.y) / gc).toLong)

  private def origin(data: TrajDataset): Pt = Pt(data.bbox.x0, data.bbox.y0)

  /** Ids whose point at q.t shares the query's cell: the ground truth on raw
    * data, approximate STRQ on a reconstruction (Table 2 without CQC). */
  def groundTruth(data: TrajDataset, q: Strq, gc: Double): Set[Int] =
    refineWithRaw(0 until data.numTrajs, data, q, gc)

  /** Local search (§5.2): candidates are the reconstructions inside the
    * query's candidate box (`Strq.box`). */
  def localSearchCandidates(recon: TrajDataset, q: Strq, gc: Double, radius: Double): Set[Int] = {
    val box = q.box(origin(recon), gc, radius)
    (0 until recon.numTrajs).filter(i => box.contains(recon.point(i, q.t))).toSet
  }

  /** The same over a map from (id, t) to the refined point, such as the
    * view `PpqDecoder.reconstruct` returns; ids outside `data` are never
    * candidates. `ppqbench` and `PpqPropertySpec`'s exact-STRQ property
    * call it. */
  def localSearchCandidates(recon: collection.Map[(Int, Int), Pt], data: TrajDataset,
                            q: Strq, gc: Double, radius: Double): Set[Int] = {
    val box = q.box(origin(data), gc, radius)
    (0 until data.numTrajs).filter(i => recon.get((i, q.t)).exists(box.contains)).toSet
  }

  /** Exact refinement: access the raw trajectory of each candidate and keep
    * those truly in the query cell — precision and recall become 1 when the
    * candidate set had recall 1 (§5.2). */
  def refineWithRaw(cands: Iterable[Int], data: TrajDataset, q: Strq, gc: Double): Set[Int] = {
    val o = origin(data)
    val qc = q.cell(o, gc)
    cands.filter(i => cellOf(data.point(i, q.t), o, gc) == qc).toSet
  }

  def precisionRecall(returned: Set[Int], truth: Set[Int]): (Double, Double) = {
    if (returned.isEmpty && truth.isEmpty) return (1.0, 1.0)
    val hit = (returned & truth).size.toDouble
    val p = if (returned.isEmpty) 0.0 else hit / returned.size
    val r = if (truth.isEmpty) 1.0 else hit / truth.size
    (p, r)
  }

  /** Each raw point's distance to its reconstruction, t outer, id inner. */
  private def deviations(recon: TrajDataset, data: TrajDataset): Iterator[Double] =
    data.allPoints.map { case (i, t, p) => recon.point(i, t).dist(p) }

  /** Mean absolute error between reconstruction and raw points, metres. */
  def maeMeters(recon: TrajDataset, data: TrajDataset): Double =
    deviations(recon, data).foldLeft(0.0)((s, d) => s + Geo.toMeters(d)) / data.numPoints

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
  def tpqMae(recon: TrajDataset, data: TrajDataset, nQ: Int, l: Int, seed: Long): Double = {
    val rng = new Random(seed)
    var s = 0.0
    var n = 0L
    for (_ <- 0 until nQ) {
      val i = rng.nextInt(data.numTrajs)
      val t0 = 1 + rng.nextInt(math.max(1, data.len - l))
      for (t <- (t0 + 1) to math.min(data.len, t0 + l)) {
        s += Geo.toMeters(recon.point(i, t).dist(data.point(i, t))); n += 1
      }
    }
    if (n == 0) 0.0 else s / n
  }

  /** Table 4: average fraction of trajectories whose reconstruction lies
    * within `radius` of the query point — the candidate set an exact-match
    * query must visit after pruning with the summary-as-index. */
  def visitedRatio(recon: TrajDataset, qs: Seq[Strq], radius: Double): Double = {
    if (qs.isEmpty) return 0.0
    val ratios = qs.map { q =>
      val qp = Pt(q.x, q.y)
      val c = (0 until recon.numTrajs).count(i => recon.point(i, q.t).dist(qp) <= radius)
      c.toDouble / recon.numTrajs
    }
    ratios.sum / ratios.size
  }

  /** Maximum observed reconstruction deviation (degrees) — the pruning
    * radius a method without an analytic bound must use for exact queries. */
  def maxDeviationDeg(recon: TrajDataset, data: TrajDataset): Double =
    deviations(recon, data).foldLeft(0.0)(math.max)
}
