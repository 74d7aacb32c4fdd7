package repro.eval

import repro.core._
import repro.baselines._

/** The paper's method lineup (§6.1) in its row order: five PPQ variants,
  * three raw-space quantizers, then TrajStore. Tables 2–4 (equal codeword
  * budget, `PerTimestep`) and Tables 5–6 (error-bounded, `Table56`) and
  * `CompressionEval` all read it. */
object Methods {
  sealed trait Method { def name: String }

  /** A PPQ row: partition mode and CQC on/off. */
  final case class Ppq(name: String, mode: PartitionMode, useCqc: Boolean) extends Method {
    /** Params bounded at target deviation `devDeg`. CQC rows set ε₁ᴹ = 2·g_s
      * with g_s = √2·dev, so the CQC-refined deviation (√2/2)·g_s is dev
      * (§6.3.1); the other rows are bounded directly at ε₁ = dev. */
    def boundedParams(cfg: EvalConfig, devDeg: Double): PpqParams =
      if (useCqc) {
        val gs = devDeg * math.sqrt(2.0)
        cfg.params(mode, useCqc).copy(eps1 = 2 * gs, gs = Some(gs))
      } else cfg.params(mode, useCqc).copy(eps1 = devDeg)
  }

  /** A raw-space quantizer baseline: its fixed-budget step for Tables 2–4,
    * run with seed `cfg.seed + seedOffset`, and its error-bounded form for
    * Tables 5–6. */
  final case class Quantizer(name: String, budgetStep: (Array[Pt], Int, Long) => Array[Pt],
                             seedOffset: Long, bounded: Double => BoundedQuantizer) extends Method

  case object TrajStore extends Method { val name = "TrajStore" }

  /** PPQ-A comes first: its bounded run sets the Table 2/3 budget. */
  val ppq: Seq[Ppq] = Seq(
    Ppq("PPQ-A", PartitionMode.Autocorr, useCqc = true),
    Ppq("PPQ-A-basic", PartitionMode.Autocorr, useCqc = false),
    Ppq("PPQ-S", PartitionMode.Spatial, useCqc = true),
    Ppq("PPQ-S-basic", PartitionMode.Spatial, useCqc = false),
    Ppq("E-PQ", PartitionMode.Single, useCqc = false))

  val quantizers: Seq[Quantizer] = Seq(
    Quantizer("Q-trajectory", QTrajectory.budgetStep, 1000, new QTrajectory.Bounded(_)),
    Quantizer("Residual Quantization", ResidualQuantization.budgetStep, 2000, new ResidualQuantization.Bounded(_)),
    Quantizer("Product Quantization", ProductQuantization.budgetStep, 3000, new ProductQuantization.Bounded(_)))

  val all: Seq[Method] = ppq ++ quantizers :+ TrajStore
}
