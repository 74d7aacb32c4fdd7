package repro.core

import java.util.concurrent.{Callable, ForkJoinPool, ForkJoinTask}
import java.util.concurrent.atomic.AtomicBoolean

/** Partitioning for grouped modelling (§3.2.1): grow the number of
  * partitions q round by round until every member is within ε_p of its
  * centroid (Eq. 7 for spatial features, Eq. 8 for autocorrelation
  * features — the caller chooses the feature vectors). */
object Partitioner {

  /** `capped` marks a result that stopped at `maxRounds` with a member
    * still farther than ε_p from its centroid. */
  final case class Result(assign: Array[Int], centroids: Array[Array[Double]], rounds: Int,
                          capped: Boolean = false)

  def maxDeviation(vecs: Array[Array[Double]], assign: Array[Int], cents: Array[Array[Double]]): Double = {
    var m = 0.0
    var i = 0
    while (i < vecs.length) { val d = KMeans.dist(vecs(i), cents(assign(i))); if (d > m) m = d; i += 1 }
    m
  }

  /** q starts at 1 and grows by `a` per round (Lemma 1's schedule) until the
    * ε_p constraint holds; q = n always satisfies it. The loop stops at
    * `maxRounds` even if the constraint still fails (so q ≤ 1 + a·(maxRounds − 1));
    * such a result is flagged `capped`. Vectors must be finite, and `a` and
    * `maxRounds` at least 1 (`IllegalArgumentException` otherwise).
    *
    * Round r clusters into q_r = min(n, 1 + a·(r − 1)) with seed `seed` (r = 1)
    * or `seed + r`, so no round depends on another. With at least
    * `SpeculativeFloor` vectors and more than one processor, the rounds after
    * `CallerRounds` run ahead on a shared pool; the answer is still the first
    * round that meets the stop rule (DESIGN.md §7.4). */
  def partitionByThreshold(vecs: Array[Array[Double]], epsP: Double, a: Int = 4,
                           maxRounds: Int = 64, seed: Long = 11): Result = {
    require(a >= 1, s"a must be at least 1, got $a")
    require(maxRounds >= 1, s"maxRounds must be at least 1, got $maxRounds")
    if (vecs.isEmpty) return Result(Array.empty, Array.empty, 0)
    val n = vecs.length
    // The last round that can run: q reaches n at 1 + ceil((n − 1) / a).
    val last = math.min(maxRounds.toLong, 1 + (n - 1 + a.toLong - 1) / a).toInt
    // Round r, or null if it is abandoned before it starts or while it runs.
    def round(r: Int, abandoned: AtomicBoolean): Round = if (abandoned.get) null else {
      val q = math.min(n.toLong, 1 + a.toLong * (r - 1)).toInt
      val (cents, assign) = KMeans.cluster(vecs, q, 15, if (r == 1) seed else seed + r, abandoned)
      if (abandoned.get) null else Round(cents, assign, maxDeviation(vecs, assign, cents))
    }
    // Rounds 1 to CallerRounds run here: invalid vectors throw on the
    // caller, and a call that stops by then hands nothing off.
    var r = 1
    var x = round(1, KMeans.NeverAbandoned)
    def more: Boolean = r < last && x.dev > epsP
    val alone = n < SpeculativeFloor || Runtime.getRuntime.availableProcessors == 1
    while (more && (alone || r < CallerRounds)) { r += 1; x = round(r, KMeans.NeverAbandoned) }
    if (more) {
      // Keep up to one round per processor in flight and take them in
      // order. Once the answer is known the rest are abandoned: a round
      // that has not started returns at once, one that has stops at its
      // next Lloyd iteration. No joined round can be abandoned.
      val abandoned = new AtomicBoolean
      val width = math.min(Runtime.getRuntime.availableProcessors, last - r)
      val inFlight = new Array[ForkJoinTask[Round]](width) // round s at s % width
      def submit(s: Int): Unit = inFlight(s % width) = Speculation.pool.submit(new Callable[Round] {
        def call(): Round = round(s, abandoned)
      })
      (r + 1 to r + width).foreach(submit)
      try while (more) {
        r += 1
        x = inFlight(r % width).join()
        if (more && r + width <= last) submit(r + width)
      } finally abandoned.set(true)
    }
    Result(x.assign, x.cents, r, capped = x.dev > epsP)
  }

  /** Below this many vectors a call runs its rounds one after another.
    * Calls of under 96 vectors ran slower ahead on the pool. Calls of
    * 96–255 vectors that pass round 4 occur, among the benchmark's
    * workloads, only in spark-porto's encoder tasks (two per pass), where
    * a floor of 96 was no faster than this one (CHANGES.md). */
  private val SpeculativeFloor = 256

  /** Rounds that every call runs on the caller. Round r costs about
    * n·q_r, which grows with r, so these are 0.3% of a 64-round call's
    * work at a = 4, while a call that stops by then pays no hand-off. */
  private val CallerRounds = 4

  private final case class Round(cents: Array[Array[Double]], assign: Array[Int], dev: Double)

  /** The daemon threads that run speculative rounds, one per processor,
    * created on first use. */
  private object Speculation {
    val pool = new ForkJoinPool(Runtime.getRuntime.availableProcessors)
  }
}

/** Incremental temporal partitioning (§3.2.2). Partition ids are stable
  * across timestamps: points keep their previous partition; partitions
  * violating ε_p are re-partitioned from scratch over their own members;
  * partitions whose centroids come within ε_p are merged, each at most
  * once per update (the paper's fragmentation guard). A new trajectory
  * joins the nearest live partition, the first one listed on a tie. */
final class IncrementalPartitioner(epsP: Double, seed: Long = 13) {
  import IncrementalPartitioner.Growth
  import KMeans.dist
  import MathUtil.buckets

  // The partition of each trajectory slot, -1 before its first update.
  private var partOf = Array.fill(16)(-1)
  // Partitions alive after the last update: ids and centroids by slot, and
  // the slot of each id.
  private var liveIds = Array.emptyIntArray
  private var liveCents = Array.empty[Array[Double]]
  private val liveSlots = new SlotTable
  private val mergeCells = new SlotTable // `mergePartners`' grid, reused by every update
  private var nextPart = 0
  var splits = 0
  var merges = 0
  /** Re-partitions that stopped at `partitionByThreshold`'s round cap and
    * so kept partitions wider than ε_p (DESIGN.md §7.3). */
  var cappedSplits = 0
  private var round = 0

  def numPartitions: Int = liveIds.length

  /** The live partitions' centroids by id. */
  private[core] def centroids: Map[Int, Array[Double]] = liveIds.indices.map(s => liveIds(s) -> liveCents(s)).toMap

  /** Mean of vecs(idx(j)) for j in [from, until) and then [from2, until2),
    * summed in that order. */
  private def mean(vecs: Array[Array[Double]], idx: Array[Int], from: Int, until: Int,
                   from2: Int = 0, until2: Int = 0): Array[Double] = {
    val dim = vecs(idx(from)).length
    val c = new Array[Double](dim)
    def sum(from: Int, until: Int): Unit = {
      var j = from
      while (j < until) { val v = vecs(idx(j)); var i = 0; while (i < dim) { c(i) += v(i); i += 1 }; j += 1 }
    }
    sum(from, until); sum(from2, until2)
    val count = until - from + until2 - from2
    var i = 0
    while (i < dim) { c(i) /= count; i += 1 }
    c
  }

  /** Whether vecs(idx(j)), j in [from, until), are finite and pairwise at
    * a distance above 0. */
  private def distinctFinite(vecs: Array[Array[Double]], idx: Array[Int], from: Int, until: Int): Boolean = {
    var j = from
    while (j < until) {
      val v = vecs(idx(j))
      var d = 0
      while (d < v.length) { if (!java.lang.Double.isFinite(v(d))) return false; d += 1 }
      var l = from
      while (l < j) { if (!(dist(vecs(idx(l)), v) > 0)) return false; l += 1 }
      j += 1
    }
    true
  }

  /** Slot of the live centroid nearest to v; ties go to the lowest slot. */
  private def nearestLive(v: Array[Double]): Int = {
    var best = 0; var bd = Double.MaxValue
    var s = 0
    while (s < liveIds.length) { val d = dist(v, liveCents(s)); if (d < bd) { bd = d; best = s }; s += 1 }
    best
  }

  /** Assign the trajectory at each slot, a dense index 0 or more that
    * stands for one trajectory (as a `SlotTable` numbers them), to a
    * partition; returns partition ids aligned with the input order. */
  def update(slots: Array[Int], vecs: Array[Array[Double]]): Array[Int] = {
    round += 1
    require(slots.length == vecs.length)
    if (slots.isEmpty) return Array.empty
    val n = slots.length
    // Step 1: carry over previous assignments; new trajectories join the
    // nearest live partition (or seed the first one). Groups are numbered
    // in order of first appearance.
    if (liveIds.isEmpty) {
      liveIds = Array(nextPart); liveCents = Array(vecs(0).clone); liveSlots.slotOrAdd(nextPart); nextPart += 1
    }
    val groupOfSlot = Array.fill(liveIds.length)(-1)
    val groupSlot = new Array[Int](liveIds.length)
    var groups = 0
    val grp = new Array[Int](n)
    var i = 0
    while (i < n) {
      val ts = slots(i)
      val part = if (ts < partOf.length) partOf(ts) else -1
      val prev = if (part < 0) -1 else liveSlots.slot(part)
      val s = if (prev >= 0) prev else nearestLive(vecs(i))
      if (groupOfSlot(s) < 0) { groupOfSlot(s) = groups; groupSlot(groups) = s; groups += 1 }
      grp(i) = groupOfSlot(s)
      i += 1
    }
    // Step 2: recompute centroids; re-partition any group violating ε_p.
    // Each resulting partition gets a rebuilt index r, in the order the
    // merge step visits them; new ids follow first appearance.
    val (gStart, gIdx) = buckets(grp, groups)
    val rid = new Array[Int](n)
    val rcent = new Array[Array[Double]](n)
    val rOf = new Array[Int](n) // rebuilt index of each point
    var m = 0
    var g = 0
    while (g < groups) {
      val from = gStart(g); val until = gStart(g + 1)
      val c = mean(vecs, gIdx, from, until)
      var worst = 0.0
      var j = from
      while (j < until) { worst = math.max(worst, dist(vecs(gIdx(j)), c)); j += 1 }
      if (worst <= epsP) {
        rid(m) = liveIds(groupSlot(g)); rcent(m) = c
        j = from
        while (j < until) { rOf(gIdx(j)) = m; j += 1 }
        m += 1
      } else if (until - from <= 1 + Growth && worst > epsP && distinctFinite(vecs, gIdx, from, until)) {
        // partitionByThreshold's answer, known without k-means: round 1
        // (q = 1) is the mean just rejected, and round 2, the last, has
        // q = n, which leaves n singletons of deviation 0 (DESIGN.md §7.6).
        j = from
        while (j < until) {
          rid(m) = nextPart; nextPart += 1; rcent(m) = mean(vecs, gIdx, j, j + 1); rOf(gIdx(j)) = m
          m += 1
          j += 1
        }
        splits += until - from - 1
        if (epsP < 0) cappedSplits += 1
      } else {
        val vs = Array.tabulate(until - from)(j => vecs(gIdx(from + j)))
        val r = Partitioner.partitionByThreshold(vs, epsP, Growth, seed = seed + round)
        val local = Array.fill(r.centroids.length)(-1)
        val m0 = m
        j = 0
        while (j < vs.length) {
          val lp = r.assign(j)
          if (local(lp) < 0) { local(lp) = m; rid(m) = nextPart; nextPart += 1; rcent(m) = r.centroids(lp); m += 1 }
          rOf(gIdx(from + j)) = local(lp)
          j += 1
        }
        splits += m - m0 - 1
        if (r.capped) cappedSplits += 1
      }
      g += 1
    }
    // Step 3: merge centroids within ε_p, each partition at most once:
    // a merges with the smallest unmerged b > a within ε_p. Centroids stay
    // fixed during the loop (merged pairs are recomputed after it).
    val partner = IncrementalPartitioner.mergePartners(rcent, m, epsP, mergeCells)
    val into = Array.range(0, m) // the partition each one ends in
    val (rStart, rIdx) = buckets(rOf, m)
    var a = 0
    while (a < m) {
      val b = partner(a)
      if (b >= 0) {
        into(b) = a
        merges += 1
        rcent(a) = mean(vecs, rIdx, rStart(a), rStart(a + 1), rStart(b), rStart(b + 1))
      }
      a += 1
    }
    // Commit assignments; partitions with no current members are dropped
    // so they don't attract strays.
    val out = new Array[Int](n)
    i = 0
    while (i < n) {
      out(i) = rid(into(rOf(i)))
      val ts = slots(i)
      if (ts >= partOf.length) {
        val had = partOf.length
        partOf = java.util.Arrays.copyOf(partOf, math.max(2 * had, ts + 1))
        java.util.Arrays.fill(partOf, had, partOf.length, -1)
      }
      partOf(ts) = out(i)
      i += 1
    }
    var live = 0
    a = 0
    while (a < m) { if (into(a) == a) live += 1; a += 1 }
    liveIds = new Array[Int](live)
    liveCents = new Array[Array[Double]](live)
    liveSlots.clear()
    a = 0
    while (a < m) {
      if (into(a) == a) { val s = liveSlots.slotOrAdd(rid(a)); liveIds(s) = rid(a); liveCents(s) = rcent(a) }
      a += 1
    }
    out
  }
}

object IncrementalPartitioner {
  import KMeans.dist

  /** The `a` of every re-partition: q grows by 4 per round. */
  private val Growth = 4

  /** The merge step over cents(0 until m): visiting a in increasing order,
    * an a not yet merged takes as partner(a) the smallest b > a not yet
    * merged with dist ≤ ε_p, if any; partner(a) is -1 otherwise.
    *
    * b is searched in a uniform grid over the first two centroid
    * coordinates (one for 1-D vectors) with cells of side w = ε_p·(1 +
    * 2⁻¹⁰). Each cell chains its partitions in increasing index, so a
    * cell's first unmerged hit is its smallest. Any b that the exact test
    * accepts lies in a's cell or a neighbouring one as long as every grid
    * coordinate is within 2⁴⁰·w of 0 and ε_p ≥ 1e-100 (DESIGN.md §7.2);
    * otherwise every b > a is tested. `cells` is cleared and then holds
    * the grid's cells, so one table serves every call. */
  private[core] def mergePartners(cents: Array[Array[Double]], m: Int, epsP: Double, cells: SlotTable): Array[Int] = {
    val partner = Array.fill(m)(-1)
    val gone = new Array[Boolean](m) // visited as a, or merged into an earlier partition
    val w = epsP * (1 + 1.0 / 1024)
    val limit = w * (1L << 40).toDouble
    val twoD = cents(0).length >= 2
    var gridded = epsP >= 1e-100 && java.lang.Double.isFinite(limit)
    var r = 0
    while (gridded && r < m) {
      gridded = math.abs(cents(r)(0)) <= limit && (!twoD || math.abs(cents(r)(1)) <= limit)
      r += 1
    }
    val cx = new Array[Long](m); val cy = new Array[Long](m)
    val head = new Array[Int](m); val next = new Array[Int](m)
    if (gridded) {
      cells.clear()
      val tail = new Array[Int](m)
      r = 0
      while (r < m) {
        cx(r) = math.floor(cents(r)(0) / w).toLong
        if (twoD) cy(r) = math.floor(cents(r)(1) / w).toLong
        next(r) = -1
        val fresh = cells.size
        val c = cells.slotOrAdd(SlotTable.cellKey(cx(r), cy(r)))
        if (c == fresh) head(c) = r else next(tail(c)) = r
        tail(c) = r
        r += 1
      }
    }
    val dyMax = if (twoD) 1L else 0L
    var a = 0
    while (a < m) {
      if (!gone(a)) {
        val ca = cents(a)
        gone(a) = true
        var b = m
        if (gridded) {
          var dx = -1L
          while (dx <= 1) {
            var dy = -dyMax
            while (dy <= dyMax) {
              val c = cells.slot(SlotTable.cellKey(cx(a) + dx, cy(a) + dy))
              if (c >= 0) {
                while (head(c) >= 0 && gone(head(c))) head(c) = next(head(c))
                r = head(c)
                while (r >= 0 && r < b) {
                  if (!gone(r) && dist(ca, cents(r)) <= epsP) b = r else r = next(r)
                }
              }
              dy += 1
            }
            dx += 1
          }
        } else {
          r = a + 1
          while (r < m && b == m) { if (!gone(r) && dist(ca, cents(r)) <= epsP) b = r; r += 1 }
        }
        if (b < m) { gone(b) = true; partner(a) = b }
      }
      a += 1
    }
    partner
  }
}
