package repro.core

import scala.collection.{AbstractIterator, immutable, mutable}

/** How trajectory points are grouped for per-partition prediction (§3.2.1). */
sealed trait PartitionMode extends Serializable
object PartitionMode {
  /** Eq. 7: spatial proximity of the current points. */
  case object Spatial extends PartitionMode
  /** Eq. 8: similarity of lag-k AR coefficients. */
  case object Autocorr extends PartitionMode
  /** Single global partition — the plain E-PQ of §3.1. */
  case object Single extends PartitionMode
}

/** Parameters of the PPQ-trajectory summariser. Defaults follow §6.1:
  * ε₁ = 0.001 (≈111 m), g_s = 50 m, g_c = 100 m (held by callers). */
final case class PpqParams(
    k: Int = 2,
    eps1: Double = 0.001,
    gs: Option[Double] = Some(50.0 / Geo.MetersPerDegree),
    mode: PartitionMode = PartitionMode.Autocorr,
    epsP: Double = 0.01,
    seed: Long = 17) extends Serializable {
  require(k >= 1, s"k must be at least 1: k = $k")
  require(eps1 > 0 && !eps1.isInfinite, s"ε₁ must be positive and finite: ε₁ = $eps1")
  require(epsP >= 0, s"ε_p must be 0 or more and not NaN: ε_p = $epsP")
  for (g <- gs) {
    require(g > 0 && !g.isInfinite, s"g_s must be positive and finite: g_s = $g")
    val side = Cqc.sideFor(eps1, g)
    require(side <= CoordinateQuadtree.MaxSide, s"ε₁ = $eps1 over g_s = $g needs a CQC grid of side $side, " +
      s"over the coordinate quadtree's limit of ${CoordinateQuadtree.MaxSide} cells a side")
  }
}

/** Per-point output of the encoder. `recon` is the codebook reconstruction
  * (Eq. 4); `refined` additionally applies CQC (Eq. 11) when enabled. */
final case class CodedPoint(
    trajId: Int, t: Int, part: Int, b: Int,
    cqcBits: Long, cqcLen: Int,
    recon: Pt, refined: Pt) extends Serializable

/** Per-timestamp slice of the summary needed for decoding: the prediction
  * coefficients P_j[t] of each partition present at t, the partition ids
  * strictly increasing in `parts` and the P (length k) of parts(i) at
  * coeffs(i). Each point's partition travels in its `CodedPoint.part`. */
final case class StepSummary(t: Int, parts: Array[Int], coeffs: Array[Array[Double]])

/** How the encoder builds its codebook C. Alg. 1 grows one error-bounded
  * codebook over the whole stream; the equal-budget protocol of Tables 2–4
  * (§6.2.1) learns a codebook per timestamp instead. */
sealed trait CodebookPolicy extends Serializable
object CodebookPolicy {
  /** One `ErrorBoundedCodebook` for the whole stream (Alg. 1, Tables 5–6). */
  case object Global extends CodebookPolicy
  /** A fresh `ErrorBoundedCodebook` at each timestamp (Table 2). */
  case object PerStep extends CodebookPolicy
  /** A k-means codebook of `v` words over each timestamp's errors (Table 4). */
  final case class KMeansPerStep(v: Int) extends CodebookPolicy
}

/** The last `cap` points of each trajectory, oldest first. A trajectory
  * is a slot, a dense index that the owner's `SlotTable` gives its id, and
  * has a fixed ring of 2·cap coordinates in `xs` and `ys` from `slot * 2 *
  * cap`; every point is written twice, at its ring position and cap places
  * later, so the window is always the contiguous run `start(slot) until
  * start(slot) + length(slot)`. A slot with no point has length 0. */
private[core] final class TrajWindow(cap: Int) {
  private var _xs = new Array[Double](16 * 2 * cap)
  private var _ys = new Array[Double](16 * 2 * cap)
  private var head = new Array[Int](16) // ring position of the oldest point
  private var count = new Array[Int](16)

  def xs: Array[Double] = _xs
  def ys: Array[Double] = _ys

  def length(slot: Int): Int = if (slot < count.length) count(slot) else 0
  /** Index in `xs` and `ys` of the oldest point of `slot`. */
  def start(slot: Int): Int = slot * 2 * cap + (if (slot < head.length) head(slot) else 0)

  def add(s: Int, p: Pt): Unit = {
    if (s >= count.length) {
      val slots = math.max(2 * count.length, s + 1)
      _xs = java.util.Arrays.copyOf(_xs, 2 * slots * cap); _ys = java.util.Arrays.copyOf(_ys, 2 * slots * cap)
      head = java.util.Arrays.copyOf(head, slots); count = java.util.Arrays.copyOf(count, slots)
    }
    // A full ring overwrites its oldest point and moves on by one.
    val pos = if (count(s) < cap) { count(s) += 1; count(s) - 1 } else { val h = head(s); head(s) = (h + 1) % cap; h }
    val at = s * 2 * cap + pos
    _xs(at) = p.x; _xs(at + cap) = p.x
    _ys(at) = p.y; _ys(at + cap) = p.y
  }
}

/** The last k reconstructed points of each trajectory and the prediction
  * rule over them: Eq. 2 predicts from the reconstructions T̂, never from
  * the raw points. The encoder's frontend and the decoder each keep one
  * and feed it the same reconstructions, so both predict the same point.
  * Both address trajectories by the slots of their own `SlotTable`. */
private[core] final class ReconHistory(params: PpqParams) {
  val window = new TrajWindow(params.k)

  /** Index in `window.xs` of the most recent of the k reconstructed points
    * at `slot`, or -1 while fewer than k are known. */
  def newest(slot: Int): Int =
    if (window.length(slot) < params.k) -1 else window.start(slot) + params.k - 1

  /** P_j[t] applied to the last k reconstructed points of the trajectory
    * whose `newest` index is `last`, or 0 while fewer than k are known
    * (t ≤ k in Alg. 1). */
  def predict(coeffs: Array[Double], last: Int): Pt =
    if (last < 0) Pt(0.0, 0.0) else Predictor.predict(coeffs, window.xs, window.ys, last)

  def add(slot: Int, recon: Pt): Unit = window.add(slot, recon)
}

/** The shared predictive front half of PPQ: incremental partitioning,
  * per-partition least-squares coefficients, prediction from the last k
  * *reconstructed* points, and history upkeep. */
final class PredictiveFrontend(val params: PpqParams) {
  import PredictiveFrontend.{ArWindow, Plan}
  private val history = new ReconHistory(params)
  // raw points, for AR features: the ArWindow rows of the fit and k lags before them
  private val raw = new TrajWindow(ArWindow + params.k)
  private val keepRaw = params.mode == PartitionMode.Autocorr  // the only mode that reads `raw`
  private val partitioner = new IncrementalPartitioner(params.epsP, params.seed)
  // Each trajectory's slot in the history, the raw window and the partitioner.
  private val trajs = new SlotTable
  private val eq = new Predictor.NormalEquations(params.k) // every fit of a step, one after another
  // The points of the last plan and their slots, for `commit`.
  private var planned: Array[(Int, Pt)] = Array.empty
  private var plannedSlots = Array.emptyIntArray

  def numPartitions: Int = partitioner.numPartitions

  def plan(t: Int, points: Array[(Int, Pt)]): Plan = {
    val n = points.length
    val slots = new Array[Int](n)
    var i = 0
    while (i < n) { slots(i) = trajs.slotOrAdd(points(i)._1); i += 1 }
    planned = points; plannedSlots = slots
    val assign: Array[Int] = params.mode match {
      case PartitionMode.Single => new Array[Int](n)
      case PartitionMode.Spatial =>
        partitioner.update(slots, Array.tabulate(n) { i => val p = points(i)._2; Array(p.x, p.y) })
      case PartitionMode.Autocorr =>
        partitioner.update(slots, Array.tabulate(n) { i =>
          val s = slots(i)
          Predictor.arFeatures(eq, raw.xs, raw.ys, raw.start(s), raw.length(s), ArWindow)
        })
    }
    // Visit points grouped by partition, in increasing index within each
    // group: the least-squares sums run in that order, and the partitions
    // in increasing id.
    val byPart = new Array[Long](n)
    i = 0
    while (i < n) { byPart(i) = (assign(i).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(byPart)
    val last = new Array[Int](n) // each point's `history.newest`
    i = 0
    while (i < n) { last(i) = history.newest(slots(i)); i += 1 }
    val hx = history.window.xs; val hy = history.window.ys
    val parts = new Array[Int](n)
    val coeffs = new Array[Array[Double]](n)
    var np = 0
    val preds = new Array[Pt](n)
    var from = 0
    while (from < n) {
      val part = (byPart(from) >>> 32).toInt
      var until = from
      while (until < n && (byPart(until) >>> 32).toInt == part) until += 1
      eq.reset()
      var j = from
      while (j < until) {
        i = byPart(j).toInt
        if (last(i) >= 0) { val p = points(i)._2; eq.add(hx, hy, last(i), p.x, p.y) }
        j += 1
      }
      val c = eq.solve()
      parts(np) = part; coeffs(np) = c; np += 1
      j = from
      while (j < until) {
        i = byPart(j).toInt
        preds(i) = history.predict(c, last(i))
        j += 1
      }
      from = until
    }
    Plan(assign, java.util.Arrays.copyOf(parts, np), java.util.Arrays.copyOf(coeffs, np), preds)
  }

  /** Record this step's codebook reconstructions — they drive the next
    * step's prediction (Eq. 2 uses T̂) — and, under `Autocorr`, the raw
    * points the AR features are computed from. `points` must be the array
    * the last `plan` was given. */
  def commit(points: Array[(Int, Pt)], recons: Array[Pt]): Unit = {
    require(points eq planned, "commit takes the points array of the last plan")
    var i = 0
    while (i < points.length) {
      history.add(plannedSlots(i), recons(i))
      if (keepRaw) raw.add(plannedSlots(i), points(i)._2)
      i += 1
    }
  }
}

object PredictiveFrontend {
  private[core] val ArWindow = 12 // raw points per trajectory the AR features are fitted over

  /** A step's partition of each point, the partitions present (strictly
    * increasing) with their P at the same index, and each point's prediction. */
  final case class Plan(assign: Array[Int], parts: Array[Int], coeffs: Array[Array[Double]], preds: Array[Pt]) {
    def numParts: Int = parts.length
  }
}

/** Algorithm 1 + §3.2: the online partition-wise predictive quantizer,
  * with CQC refinement when g_s is set. Feed timestamps in strictly
  * increasing order via `step`. `policy` chooses how C is built; under the
  * default `Global` policy the summary ({P_j[t]}, C, {b_i^t}, CQC) is
  * exposed through `codebook`, `steps` and the returned codes, and
  * `PpqDecoder.reconstruct` replays it, in t order, byte-exactly. The
  * per-step policies serve the equal-budget Tables 2 and 4. */
final class PpqEncoder(val params: PpqParams, policy: CodebookPolicy = CodebookPolicy.Global) {
  private var cb = new ErrorBoundedCodebook(params.eps1)
  private val quadtree: Option[CoordinateQuadtree] =
    params.gs.map(g => new CoordinateQuadtree(Cqc.sideFor(params.eps1, g)))
  private val frontend = new PredictiveFrontend(params)
  /** The per-step slices the decoder needs; recorded under `Global` only,
    * since the per-step policies keep no codebook to decode with. */
  val steps = mutable.ArrayBuffer.empty[StepSummary]
  var nPoints = 0L
  var cqcBitsTotal = 0L
  private var assignBitsTotal = 0L
  private var lastT: Option[Int] = None

  def numPartitions: Int = frontend.numPartitions

  /** The error-bounded codebook C: the whole stream's under `Global`, the
    * last step's under `PerStep`. A k-means policy keeps none. */
  def codebook: ErrorBoundedCodebook = policy match {
    case CodebookPolicy.KMeansPerStep(_) =>
      throw new UnsupportedOperationException("a KMeansPerStep encoder keeps no error-bounded codebook")
    case _ => cb
  }

  def step(t: Int, points: Array[(Int, Pt)]): Array[CodedPoint] = {
    require(lastT.forall(t > _), s"timestamp t=$t does not follow the previous step's t=${lastT.get}")
    val n = points.length
    var i = 0
    while (i < n) {
      val p = points(i)._2
      if (!(java.lang.Double.isFinite(p.x) && java.lang.Double.isFinite(p.y)))
        throw new IllegalArgumentException(s"trajectory ${points(i)._1} at t=$t has a non-finite point $p")
      i += 1
    }
    lastT = Some(t)
    val plan = frontend.plan(t, points)
    val (bs, words) = quantize(t, Array.tabulate(n)(i => points(i)._2 - plan.preds(i)))
    val out = new Array[CodedPoint](n)
    val recons = new Array[Pt](n)
    i = 0
    while (i < n) {
      val id = points(i)._1; val rp = points(i)._2
      val recon = plan.preds(i) + words(i)
      out(i) = quadtree match {
        case Some(qt) =>
          val g = params.gs.get
          val code = Cqc.encode(rp, recon, params.eps1, g, qt)
          cqcBitsTotal += code.len
          CodedPoint(id, t, plan.assign(i), bs(i), code.bits, code.len, recon,
                     Cqc.refine(recon, code, params.eps1, g, qt))
        case None =>
          CodedPoint(id, t, plan.assign(i), bs(i), 0L, 0, recon, recon)
      }
      recons(i) = recon
      i += 1
    }
    frontend.commit(points, recons)
    nPoints += n
    assignBitsTotal += n.toLong * MathUtil.ceilLog2(math.max(plan.numParts, 2))
    if (policy == CodebookPolicy.Global)
      steps += StepSummary(t, plan.parts, plan.coeffs)
    out
  }

  /** Codeword index b of each prediction error, and the codeword it indexes. */
  private def quantize(t: Int, errors: Array[Pt]): (Array[Int], Array[Pt]) = policy match {
    case CodebookPolicy.KMeansPerStep(v) =>
      val (words, assign) = KMeans.clusterPts(errors, v, iters = 10, seed = params.seed + t)
      (assign, assign.map(words))
    case _ =>
      if (policy == CodebookPolicy.PerStep) cb = new ErrorBoundedCodebook(params.eps1)
      val bs = new Array[Int](errors.length)
      val words = new Array[Pt](errors.length)
      var i = 0
      while (i < errors.length) { bs(i) = cb.quantize(errors(i)); words(i) = cb(bs(i)); i += 1 }
      (bs, words)
  }

  /** Size of the summary ({P_j[t]}, C, {b_i^t}, CQC, assignments) in bits —
    * the numerator-side of the paper's compression-ratio measure. It counts
    * one codebook, so it is defined under the `Global` policy only; the
    * per-step policies serve Tables 2 and 4, which do not ask for it. */
  def summaryBits: Long = {
    if (policy != CodebookPolicy.Global)
      throw new UnsupportedOperationException(s"summaryBits is defined for the Global policy, not $policy")
    cb.size.toLong * 2 * 64 +
      nPoints * MathUtil.ceilLog2(math.max(cb.size, 2)) +
      cqcBitsTotal +
      steps.iterator.map(s => s.parts.length.toLong * params.k * 64).sum +
      assignBitsTotal
  }
}

/** Reconstructs every trajectory point from the summary alone — the check
  * that ({P_j[t]}, C, {b_i^t}, CQC) "are enough to reproduce any
  * trajectory" (§5). Uses only (trajId, t, part, b, cqc) from the codes.
  *
  * One stable counting sort groups the codes by step, keeping their input
  * order within a step; the steps are replayed in increasing t through a
  * `ReconHistory`, and the refined points land in per-trajectory columns
  * (DESIGN.md §7.5). Codes whose t has no `StepSummary` are dropped. Two
  * summaries for one t, a summary whose parts are not strictly increasing,
  * whose coefficient count differs from its parts' or whose P is not of
  * length k, and a code whose partition has no coefficients at its t,
  * whose b is outside the codebook, or whose (trajId, t) repeats an
  * earlier code throw an `IllegalArgumentException`. */
object PpqDecoder {
  def reconstruct(params: PpqParams, codewords: IndexedSeq[Pt],
                  steps: Seq[StepSummary], codes: Seq[CodedPoint]): Map[(Int, Int), Pt] = {
    val qt = params.gs.map(g => new CoordinateQuadtree(Cqc.sideFor(params.eps1, g)))
    val wx = codewords.iterator.map(_.x).toArray
    val wy = codewords.iterator.map(_.y).toArray
    val ss = steps.toArray.sortBy(_.t)
    val stepTs = ss.map(_.t)
    var si = 0
    while (si < ss.length) {
      val StepSummary(t, parts, coeffs) = ss(si)
      require(si == 0 || t != stepTs(si - 1), s"two step summaries for t=$t")
      require(coeffs.length == parts.length,
        s"the step summary for t=$t has ${coeffs.length} coefficient vectors for ${parts.length} partitions")
      var j = 0
      while (j < parts.length) {
        require(j == 0 || parts(j) > parts(j - 1),
          s"the partitions of the step summary for t=$t are not strictly increasing")
        require(coeffs(j).length == params.k,
          s"partition ${parts(j)} at t=$t has ${coeffs(j).length} coefficients, not k = ${params.k}")
        j += 1
      }
      si += 1
    }
    val cs = codes.toArray
    val n = cs.length

    // Each code's bucket, 1 + its step's index in `ss` or 0 for a code with
    // no step, and each trajectory's code count.
    val stepOf = new Array[Int](n)
    val slotOf = new Array[Int](n)
    val trajs = new SlotTable
    var ids = new Array[Int](16)
    var perTraj = new Array[Int](16)
    var i = 0
    while (i < n) {
      val s = java.util.Arrays.binarySearch(stepTs, cs(i).t)
      if (s >= 0) {
        stepOf(i) = s + 1
        val slot = trajs.slotOrAdd(cs(i).trajId.toLong)
        if (slot == ids.length) {
          ids = java.util.Arrays.copyOf(ids, 2 * slot); perTraj = java.util.Arrays.copyOf(perTraj, 2 * slot)
        }
        ids(slot) = cs(i).trajId
        perTraj(slot) += 1
        slotOf(i) = slot
      }
      i += 1
    }
    // Step si's codes are order(bucket(si + 1) until bucket(si + 2)), in input order.
    val (bucket, order) = MathUtil.buckets(stepOf, ss.length + 1)
    // Trajectory slot j owns the run starts(j) until starts(j + 1) of the columns.
    val nTrajs = trajs.size
    val starts = new Array[Int](nTrajs + 1)
    var j = 0
    while (j < nTrajs) { starts(j + 1) = starts(j) + perTraj(j); j += 1 }
    val cursor = java.util.Arrays.copyOf(starts, nTrajs)
    val ts = new Array[Int](starts(nTrajs))
    val xs = new Array[Double](ts.length)
    val ys = new Array[Double](ts.length)

    val history = new ReconHistory(params)
    si = 0
    while (si < ss.length) {
      val StepSummary(t, parts, coeffs) = ss(si)
      var o = bucket(si + 1)
      while (o < bucket(si + 2)) {
        val cp = cs(order(o))
        val part = indexOf(parts, cp.part)
        if (part < 0)
          throw new IllegalArgumentException(
            s"code (${cp.trajId}, $t) names partition ${cp.part}, which has no coefficients at t=$t")
        if (cp.b < 0 || cp.b >= wx.length)
          throw new IllegalArgumentException(
            s"code (${cp.trajId}, $t) names codeword ${cp.b} of a codebook of ${wx.length}")
        val slot = slotOf(order(o))
        val pred = history.predict(coeffs(part), history.newest(slot))
        val recon = Pt(pred.x + wx(cp.b), pred.y + wy(cp.b))
        val refined = qt match {
          case Some(q) => Cqc.refine(recon, CqcCode(cp.cqcBits, cp.cqcLen), params.eps1, params.gs.get, q)
          case None => recon
        }
        history.add(slot, recon)
        val at = cursor(slot)
        if (at > starts(slot) && ts(at - 1) == t)
          throw new IllegalArgumentException(s"two codes for (${cp.trajId}, $t)")
        ts(at) = t; xs(at) = refined.x; ys(at) = refined.y
        cursor(slot) = at + 1
        o += 1
      }
      si += 1
    }
    new DecodedPoints(trajs, java.util.Arrays.copyOf(ids, nTrajs), starts, ts, xs, ys)
  }

  /** Index of `key` in the strictly increasing `parts`, or -1. The halving
    * step has no branch, so the JIT can use a conditional move: codes come
    * in no order of their partitions, and `Arrays.binarySearch`'s branches
    * cost a quarter of porto-build's decode time (CHANGES.md). */
  private def indexOf(parts: Array[Int], key: Int): Int = {
    var at = 0; var n = parts.length
    while (n > 1) { val half = n >>> 1; if (parts(at + half) <= key) at += half; n -= half }
    if (n == 1 && parts(at) == key) at else -1
  }
}

/** `PpqDecoder.reconstruct`'s result: a read-only map from (trajId, t) to
  * the refined point over flat columns. Trajectory slot j of `trajs` has id
  * `ids(j)` and owns the t-sorted run `starts(j) until starts(j + 1)` of
  * `ts`, `xs` and `ys`. `get` finds the run and binary-searches its t;
  * `iterator` walks the runs in slot order. `updated` and `removed` copy
  * the entries into a plain `Map`. */
final class DecodedPoints private[core] (
    trajs: SlotTable, ids: Array[Int], starts: Array[Int],
    ts: Array[Int], xs: Array[Double], ys: Array[Double])
    extends immutable.AbstractMap[(Int, Int), Pt] {

  /** Column index of (id, t), or -1. */
  private def indexOf(id: Int, t: Int): Int = {
    val slot = trajs.slot(id.toLong)
    if (slot < 0) -1
    else {
      val at = java.util.Arrays.binarySearch(ts, starts(slot), starts(slot + 1), t)
      if (at < 0) -1 else at
    }
  }

  def get(key: (Int, Int)): Option[Pt] = {
    val at = indexOf(key._1, key._2)
    if (at < 0) None else Some(Pt(xs(at), ys(at)))
  }

  override def contains(key: (Int, Int)): Boolean = indexOf(key._1, key._2) >= 0

  def iterator: Iterator[((Int, Int), Pt)] = new AbstractIterator[((Int, Int), Pt)] {
    private var slot = 0
    private var at = 0
    def hasNext: Boolean = at < ts.length
    def next(): ((Int, Int), Pt) = {
      if (!hasNext) throw new NoSuchElementException("next on an exhausted iterator")
      while (starts(slot + 1) <= at) slot += 1
      val e = ((ids(slot), ts(at)), Pt(xs(at), ys(at)))
      at += 1
      e
    }
  }

  override def size: Int = ts.length
  override def knownSize: Int = ts.length

  def updated[V1 >: Pt](key: (Int, Int), value: V1): Map[(Int, Int), V1] = Map.from(this).updated(key, value)
  def removed(key: (Int, Int)): Map[(Int, Int), Pt] = Map.from(this).removed(key)
}
