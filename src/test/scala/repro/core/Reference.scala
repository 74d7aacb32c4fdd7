package repro.core

import scala.collection.mutable

// Reference implementations: the full-scan Lloyd loop, the round-capped
// threshold partitioner and the map-based incremental partitioner, kept
// verbatim as they were before the pruned versions replaced them. The
// equivalence properties compare the main-source versions against these
// bit for bit.

object ReferenceKMeans {

  private def dist2(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  def cluster(vecs: Array[Array[Double]], k0: Int, iters: Int = 15, seed: Long = 7
             ): (Array[Array[Double]], Array[Int]) = {
    val n = vecs.length
    if (n == 0) return (Array.empty, Array.empty)
    val k = math.max(1, math.min(k0, n))
    val dim = vecs(0).length
    val rng = new scala.util.Random(seed)
    val cents: Array[Array[Double]] =
      rng.shuffle(vecs.indices.toVector).take(k).map(i => vecs(i).clone).toArray
    val assign = new Array[Int](n)
    java.util.Arrays.fill(assign, -1)
    var it = 0
    var changed = true
    val far = new Array[Double](n)
    while (it < iters && changed) {
      changed = false
      var i = 0
      while (i < n) {
        var best = 0; var bd = Double.MaxValue
        var c = 0
        while (c < k) { val d = dist2(vecs(i), cents(c)); if (d < bd) { bd = d; best = c }; c += 1 }
        far(i) = bd
        if (assign(i) != best) { assign(i) = best; changed = true }
        i += 1
      }
      val sums = Array.ofDim[Double](k, dim)
      val cnt = new Array[Int](k)
      i = 0
      while (i < n) {
        val c = assign(i); cnt(c) += 1
        var d = 0
        while (d < dim) { sums(c)(d) += vecs(i)(d); d += 1 }
        i += 1
      }
      var c = 0
      while (c < k) {
        if (cnt(c) > 0) {
          var d = 0
          while (d < dim) { cents(c)(d) = sums(c)(d) / cnt(c); d += 1 }
        } else {
          // Reseed an empty cluster from the worst-served point.
          var worst = 0; var wd = -1.0
          var j = 0
          while (j < n) { if (far(j) > wd) { wd = far(j); worst = j }; j += 1 }
          cents(c) = vecs(worst).clone
          far(worst) = 0.0
          changed = true
        }
        c += 1
      }
      it += 1
    }
    (cents, assign)
  }
}

object ReferencePartitioner {

  final case class Result(assign: Array[Int], centroids: Array[Array[Double]], rounds: Int)

  private def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  def maxDeviation(vecs: Array[Array[Double]], assign: Array[Int], cents: Array[Array[Double]]): Double = {
    var m = 0.0
    var i = 0
    while (i < vecs.length) { val d = dist(vecs(i), cents(assign(i))); if (d > m) m = d; i += 1 }
    m
  }

  /** q starts at 1 and grows by `a` per round (Lemma 1's schedule) until the
    * ε_p constraint holds; q = n always satisfies it, so the loop terminates. */
  def partitionByThreshold(vecs: Array[Array[Double]], epsP: Double, a: Int = 4,
                           maxRounds: Int = 64, seed: Long = 11): Result = {
    if (vecs.isEmpty) return Result(Array.empty, Array.empty, 0)
    var q = 1
    var round = 1
    var (cents, assign) = ReferenceKMeans.cluster(vecs, q, seed = seed)
    while (round < maxRounds && q < vecs.length && maxDeviation(vecs, assign, cents) > epsP) {
      q = math.min(vecs.length, q + a)
      round += 1
      val r = ReferenceKMeans.cluster(vecs, q, seed = seed + round)
      cents = r._1; assign = r._2
    }
    Result(assign, cents, round)
  }
}

/** Incremental temporal partitioning (§3.2.2). Partition ids are stable
  * across timestamps: points keep their previous partition; partitions
  * violating ε_p are re-partitioned from scratch over their own members;
  * partitions whose centroids come within ε_p are merged, each at most
  * once per update (the paper's fragmentation guard). */
final class ReferenceIncrementalPartitioner(epsP: Double, growth: Int = 4, seed: Long = 13) {
  private val assignOf = mutable.HashMap.empty[Int, Int]   // trajId -> partition id
  private var centroidOf = Map.empty[Int, Array[Double]]   // partition id -> centroid
  private var nextPart = 0
  var splits = 0
  var merges = 0
  private var round = 0

  def numPartitions: Int = centroidOf.size

  private def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  private def centroid(vecs: Seq[Array[Double]]): Array[Double] = {
    val dim = vecs.head.length
    val c = new Array[Double](dim)
    vecs.foreach { v => var i = 0; while (i < dim) { c(i) += v(i); i += 1 } }
    var i = 0
    while (i < dim) { c(i) /= vecs.length; i += 1 }
    c
  }

  /** Assign each (id, vec) to a partition; returns partition ids aligned
    * with the input order. */
  def update(ids: Array[Int], vecs: Array[Array[Double]]): Array[Int] = {
    round += 1
    require(ids.length == vecs.length)
    if (ids.isEmpty) return Array.empty
    // Step 1: carry over previous assignments; new trajectories join the
    // nearest existing partition (or seed the first one).
    val members = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Int]] // part -> input idx
    var i = 0
    while (i < ids.length) {
      val prev = assignOf.get(ids(i)).filter(centroidOf.contains)
      val part = prev.getOrElse {
        if (centroidOf.isEmpty) { val p = nextPart; nextPart += 1; centroidOf += p -> vecs(i).clone; p }
        else centroidOf.minBy { case (_, c) => dist(vecs(i), c) }._1
      }
      members.getOrElseUpdate(part, mutable.ArrayBuffer.empty) += i
      i += 1
    }
    // Step 2: recompute centroids; re-partition any group violating ε_p.
    val rebuilt = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Int]]
    for ((part, idxs) <- members) {
      val vs = idxs.map(vecs(_)).toArray
      val c = centroid(vs.toSeq)
      val worst = vs.map(dist(_, c)).max
      if (worst <= epsP) {
        centroidOf += part -> c
        rebuilt.getOrElseUpdate(part, mutable.ArrayBuffer.empty) ++= idxs
      } else {
        val r = ReferencePartitioner.partitionByThreshold(vs, epsP, growth, seed = seed + round)
        val localParts = r.assign.distinct
        splits += localParts.length - 1
        val remap = localParts.map { lp =>
          val np = nextPart; nextPart += 1
          lp -> np
        }.toMap
        centroidOf -= part
        for ((lp, p) <- remap) centroidOf += p -> r.centroids(lp)
        var j = 0
        while (j < idxs.length) {
          rebuilt.getOrElseUpdate(remap(r.assign(j)), mutable.ArrayBuffer.empty) += idxs(j)
          j += 1
        }
      }
    }
    // Step 3: merge centroids within ε_p, each partition at most once.
    val alive = rebuilt.keys.toArray
    val merged = mutable.HashSet.empty[Int]
    var a = 0
    while (a < alive.length) {
      if (!merged.contains(alive(a))) {
        var b = a + 1
        var done = false
        while (b < alive.length && !done) {
          if (!merged.contains(alive(b)) &&
              dist(centroidOf(alive(a)), centroidOf(alive(b))) <= epsP) {
            rebuilt(alive(a)) ++= rebuilt(alive(b))
            rebuilt -= alive(b)
            centroidOf -= alive(b)
            centroidOf += alive(a) -> centroid(rebuilt(alive(a)).map(vecs(_)).toSeq)
            merged += alive(a); merged += alive(b)
            merges += 1
            done = true // this partition has merged once already
          }
          b += 1
        }
      }
      a += 1
    }
    // Commit assignments.
    val out = new Array[Int](ids.length)
    for ((part, idxs) <- rebuilt; idx <- idxs) {
      out(idx) = part
      assignOf(ids(idx)) = part
    }
    // Drop centroids with no current members so they don't attract strays.
    centroidOf = centroidOf.filter { case (p, _) => rebuilt.contains(p) }
    out
  }
}
