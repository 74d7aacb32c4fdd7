package repro.eval

import repro.core._
import repro.baselines._
import repro.data.TrajDataset
import scala.collection.mutable

/** One method's reconstruction, named after the method and over the source
  * bbox, plus the metadata the table evaluations need: per-timestamp codeword
  * budget actually spent, and the analytic pruning radius when the method has
  * one (CQC bound). */
final case class MethodRun(recon: TrajDataset, vPerT: Map[Int, Int], boundRadiusDeg: Option[Double]) {
  def name: String = recon.name
}

/** Shared experiment configuration (values follow §6.1). */
final case class EvalConfig(
    spatialEpsP: Double = 0.05,                 // ε_p, spatial partitions
    epsS: Double = 0.1) {                       // ε_s, index partition threshold
  val k = 2
  val eps1 = 0.001                              // ≈ 111 m
  val gsDeg: Double = Geo.toDegrees(50.0)       // CQC grid
  val gcDeg: Double = Geo.toDegrees(100.0)      // index grid
  val autocorrEpsP = 0.05                       // ε_p, AR-coefficient partitions
  val trajStoreLeaf = 1500
  val seed = 7L
  def cqcRadiusDeg: Double = math.sqrt(2.0) / 2.0 * gsDeg
  def params(mode: PartitionMode, useCqc: Boolean): PpqParams =
    PpqParams(k = k, eps1 = eps1, gs = if (useCqc) Some(gsDeg) else None, mode = mode,
      epsP = mode match {
        case PartitionMode.Spatial => spatialEpsP
        case _ => autocorrEpsP
      }, seed = seed)
}

object EvalConfig {
  def porto: EvalConfig = EvalConfig()
  def geolife: EvalConfig = EvalConfig(spatialEpsP = 0.5, epsS = 0.5)
}

/** Per-timestamp pipelines for the equal-codeword-budget protocol of
  * Tables 2–4: every method learns its codebook independently at each
  * timestamp, and the baselines receive the codeword count the PPQ-A
  * bounded run spent at that timestamp (§6.2.1). */
object PerTimestep {

  /** Steps one `PpqEncoder` for PPQ row `m` under `policy` (Table 2's
    * `PerStep`, Table 4's `KMeansPerStep`) over the dataset and keeps the
    * refined points; under `PerStep` also each timestamp's codebook size. */
  def runPpq(m: Methods.Ppq, data: TrajDataset, policy: CodebookPolicy, cfg: EvalConfig): MethodRun = {
    val enc = new PpqEncoder(cfg.params(m.mode, m.useCqc), policy)
    val vPerT = mutable.HashMap.empty[Int, Int]
    val recon = reconstruct(m.name, data) { (t, trajs) =>
      for (cp <- enc.step(t, data.pointsAt(t))) trajs(cp.trajId)(t - 1) = cp.refined
      if (policy == CodebookPolicy.PerStep) vPerT(t) = enc.codebook.size
    }
    MethodRun(recon, vPerT.toMap, if (m.useCqc) Some(cfg.cqcRadiusDeg) else None)
  }

  /** A baseline whose timestep t reconstruction is stepFn(points, v(t)). */
  def runIndependent(name: String, data: TrajDataset, vOf: Int => Int,
                     stepFn: (Array[Pt], Int, Long) => Array[Pt], seed: Long): MethodRun = {
    val recon = reconstruct(name, data) { (t, trajs) =>
      val rec = stepFn(data.pointsAt(t).map(_._2), math.max(1, vOf(t)), seed + t)
      for (i <- rec.indices) trajs(i)(t - 1) = rec(i) // pointsAt lists ids in order
    }
    MethodRun(recon, Map.empty, None)
  }

  /** TrajStore under the Table 2 protocol: the quadtree index grows as the
    * stream arrives; at each timestamp the codeword budget is split over
    * leaves proportionally to their point counts. */
  def runTrajStore(name: String, data: TrajDataset, vOf: Int => Int, cfg: EvalConfig): MethodRun = {
    val idx = new TrajStoreIndex(data.bbox, cfg.trajStoreLeaf)
    val recon = reconstruct(name, data) { (t, trajs) =>
      data.pointsAt(t).foreach { case (id, p) => idx.insert(id, t, p) }
      for ((id, p) <- TrajStoreQuant.summarizeBudgetAt(idx, t, math.max(1, vOf(t)), cfg.seed + t))
        trajs(id)(t - 1) = p
    }
    MethodRun(recon, Map.empty, None)
  }

  /** Reconstruction `name` of `data`: `step(t, trajs)` writes t's points at
    * trajs(id)(t - 1), for t = 1..len, and must leave no gap. */
  private def reconstruct(name: String, data: TrajDataset)(step: (Int, Array[Array[Pt]]) => Unit): TrajDataset = {
    val trajs = Array.fill(data.numTrajs)(new Array[Pt](data.len))
    for (t <- 1 to data.len) step(t, trajs)
    require(trajs.forall(_.forall(_ != null)), s"$name left a point unreconstructed")
    TrajDataset(name, trajs.toIndexedSeq, data.bbox)
  }

  /** The full Table 2/3 method suite in the paper's row order; every
    * baseline gets the per-timestamp budget of the first row, PPQ-A. */
  def allBudgetMatched(data: TrajDataset, cfg: EvalConfig): Seq[MethodRun] = {
    val ppq = Methods.ppq.map(runPpq(_, data, CodebookPolicy.PerStep, cfg))
    val budget: Int => Int = t => ppq.head.vPerT.getOrElse(t, 1)
    ppq ++ quantizerRuns(data, budget, cfg) :+ runTrajStore(Methods.TrajStore.name, data, budget, cfg)
  }

  /** The Table 4 suite (no TrajStore, fixed 2^bits codewords per timestamp). */
  def allFixedBits(data: TrajDataset, bits: Int, cfg: EvalConfig): Seq[MethodRun] = {
    val v = 1 << bits
    Methods.ppq.map(runPpq(_, data, CodebookPolicy.KMeansPerStep(v), cfg)) ++ quantizerRuns(data, _ => v, cfg)
  }

  private def quantizerRuns(data: TrajDataset, vOf: Int => Int, cfg: EvalConfig): Seq[MethodRun] =
    Methods.quantizers.map(q => runIndependent(q.name, data, vOf, q.budgetStep, cfg.seed + q.seedOffset))
}
