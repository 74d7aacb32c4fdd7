package repro.baselines

import repro.core._

/** An error-bounded raw-point quantizer (Tables 5/6): `quantize` maps each
  * point within the bound, `summaryBits` sizes the codebook plus the codes
  * of `nPoints` quantized points. */
trait BoundedQuantizer {
  def quantize(p: Pt): Pt
  def codewords: Int
  def summaryBits(nPoints: Long): Long
}

/** Q-trajectory (§6.1): the PPQ pipeline with the prediction skipped —
  * raw points are quantized directly. Error-bounded variant for Tables
  * 5/6, fixed-budget (k-means per timestamp) variant for Tables 2–4. */
object QTrajectory {

  /** Error-bounded: one incrementally grown codebook over all raw points. */
  final class Bounded(epsDeg: Double) extends BoundedQuantizer {
    val codebook = new ErrorBoundedCodebook(epsDeg)
    def quantize(p: Pt): Pt = codebook(codebook.quantize(p))
    def codewords: Int = codebook.size
    /** 2×64-bit codewords and one ⌈log₂ |C|⌉-bit code per point. */
    def summaryBits(nPoints: Long): Long = codewords.toLong * 128 + nPoints * MathUtil.ceilLog2(math.max(codewords, 2))
  }

  /** Fixed budget: k-means with v centroids over this timestamp's points. */
  def budgetStep(points: Array[Pt], v: Int, seed: Long): Array[Pt] = {
    val (cents, assign) = KMeans.clusterPts(points, v, seed = seed)
    points.indices.map(i => cents(assign(i))).toArray
  }
}

/** Product Quantization [19] adapted to 2-D trajectory points: independent
  * sub-quantizers per coordinate. The stored codeword count is n_x + n_y
  * while the representable grid is n_x · n_y — which is why PQ's codebook
  * is smaller than Q-trajectory's in Table 6. */
object ProductQuantization {

  /** Error-bounded: each dimension bounded by eps/√2 so the joint L2
    * deviation stays ≤ eps. */
  final class Bounded(epsDeg: Double) extends BoundedQuantizer {
    private val epsDim = epsDeg / math.sqrt(2.0)
    private val cbX = new ErrorBoundedCodebook(epsDim)
    private val cbY = new ErrorBoundedCodebook(epsDim)
    def quantize(p: Pt): Pt =
      Pt(cbX(cbX.quantize(Pt(p.x, 0.0))).x, cbY(cbY.quantize(Pt(p.y, 0.0))).x)
    def codewords: Int = cbX.size + cbY.size
    /** 64-bit scalar codewords; two codes per point, each for half the codewords. */
    def summaryBits(nPoints: Long): Long =
      codewords.toLong * 64 + nPoints * 2 * MathUtil.ceilLog2(math.max(codewords / 2, 2))
  }

  /** Fixed budget: v/2 centroids per dimension (total stored = v). */
  def budgetStep(points: Array[Pt], v: Int, seed: Long): Array[Pt] = {
    val vd = math.max(1, v / 2)
    val (cx, ax) = KMeans.cluster1D(points.map(_.x), vd, seed = seed)
    val (cy, ay) = KMeans.cluster1D(points.map(_.y), vd, seed = seed + 1)
    points.indices.map(i => Pt(cx(ax(i)), cy(ay(i)))).toArray
  }
}

/** Residual Quantization [8]: a coarse first stage followed by a residual
  * stage. Error-bounded variant bounds stage 1 at 8·eps and stage 2 at eps
  * (so the final deviation is ≤ eps); fixed-budget variant splits the
  * codeword budget evenly across the two stages. */
object ResidualQuantization {

  final class Bounded(epsDeg: Double) extends BoundedQuantizer {
    private val stage1 = new ErrorBoundedCodebook(epsDeg * 8.0)
    private val stage2 = new ErrorBoundedCodebook(epsDeg)
    def quantize(p: Pt): Pt = {
      val c1 = stage1(stage1.quantize(p))
      val r = p - c1
      c1 + stage2(stage2.quantize(r))
    }
    def codewords: Int = stage1.size + stage2.size
    /** 2×64-bit codewords; two codes per point (one per stage), each for half the codewords. */
    def summaryBits(nPoints: Long): Long =
      codewords.toLong * 128 + nPoints * 2 * MathUtil.ceilLog2(math.max(codewords / 2, 2))
  }

  def budgetStep(points: Array[Pt], v: Int, seed: Long): Array[Pt] = {
    val v1 = math.max(1, v / 2)
    val v2 = math.max(1, v - v1)
    val (c1, a1) = KMeans.clusterPts(points, v1, seed = seed)
    val residuals = points.indices.map(i => points(i) - c1(a1(i))).toArray
    val (c2, a2) = KMeans.clusterPts(residuals, v2, seed = seed + 1)
    points.indices.map(i => c1(a1(i)) + c2(a2(i))).toArray
  }
}
