package repro.core

import repro.index.{DiskSim, GridRegion, IdCodec}
import scala.collection.mutable

// Reference implementations: the full-scan Lloyd loop, the round-capped
// threshold partitioner and the map-based incremental partitioner, kept
// verbatim as they were before the pruned versions replaced them; then the
// coordinate-0 sweep of the merge step and the boxed-map codebook, kept
// verbatim as they were before the grid merge search and the primitive
// cell table replaced them; then the PI with boxed-tuple posting keys, kept
// verbatim as it was before the primitive postings replaced it; then the
// map-based summary decoder, as it was before the flat replay replaced it
// but with a history of its own (per-id lists, not the shared
// `ReconHistory` ring), so it also checks the history the encoder and the
// flat decoder share; then the fresh full k×k normal equations and the AR features
// over them, kept verbatim as they were before the reused upper-triangle
// buffers replaced them; then Table 9's disk layout, which placed a group
// page by page, kept verbatim as it was before the page ranges replaced it.
// The incremental partitioner also counts capped splits and shows its live
// centroids, as the main one does. The equivalence properties compare the
// main-source versions against these bit for bit.

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
  var cappedSplits = 0
  private var round = 0

  def numPartitions: Int = centroidOf.size
  def centroids: Map[Int, Array[Double]] = centroidOf

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
        if (ReferencePartitioner.maxDeviation(vs, r.assign, r.centroids) > epsP) cappedSplits += 1
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

/** The merge step of `IncrementalPartitioner.update` as a sweep through
  * the coordinate-0 order of the rebuilt centroids, verbatim but for the
  * merge counter: returns each partition's partner, or -1. */
object ReferenceMergeSweep {
  import KMeans.dist

  def partners(rcent: Array[Array[Double]], m: Int, epsP: Double): Array[Int] = {
    val byX = Array.range(0, m).sortBy(r => rcent(r)(0))(Ordering.Double.TotalOrdering)
    val posX = new Array[Int](m)
    var p = 0
    while (p < m) { posX(byX(p)) = p; p += 1 }
    val next = Array.range(1, m + 1) // linked list over positions; m and -1 end it
    val prev = Array.range(-1, m - 1)
    def unlink(p: Int): Unit = {
      if (prev(p) >= 0) next(prev(p)) = next(p)
      if (next(p) < m) prev(next(p)) = prev(p)
    }
    def beyond(ca: Array[Double], cb: Array[Double]): Boolean = { val d = ca(0) - cb(0); math.sqrt(d * d) > epsP }
    val into = Array.range(0, m) // the partition each one ends in
    val partner = Array.fill(m)(-1)
    var a = 0
    while (a < m) {
      if (into(a) == a) { // not merged into an earlier partition
        val ca = rcent(a)
        unlink(posX(a)) // its own links still lead to its neighbours
        var b = m
        p = next(posX(a))
        while (p < m && !beyond(ca, rcent(byX(p)))) {
          if (byX(p) < b && dist(ca, rcent(byX(p))) <= epsP) b = byX(p)
          p = next(p)
        }
        p = prev(posX(a))
        while (p >= 0 && !beyond(ca, rcent(byX(p)))) {
          if (byX(p) < b && dist(ca, rcent(byX(p))) <= epsP) b = byX(p)
          p = prev(p)
        }
        if (b < m) {
          unlink(posX(b))
          into(b) = a; partner(a) = b
        }
      }
      a += 1
    }
    partner
  }
}

final class ReferenceCodebook(val eps: Double) {
  require(eps > 0, "eps must be positive")
  private val words = mutable.ArrayBuffer.empty[Pt]
  private val grid = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Int]]

  private def key(cx: Long, cy: Long): Long = (cx << 32) ^ (cy & 0xffffffffL)
  private def cellX(p: Pt): Long = math.floor(p.x / eps).toLong
  private def cellY(p: Pt): Long = math.floor(p.y / eps).toLong

  def size: Int = words.length
  def apply(i: Int): Pt = words(i)
  def codewords: IndexedSeq[Pt] = words.toIndexedSeq

  /** Index of the nearest codeword within eps, or -1 if none qualifies.
    * A ball of radius eps around p only reaches the 3×3 cell neighbourhood. */
  def nearestWithin(p: Pt): Int = {
    val cx = cellX(p); val cy = cellY(p)
    var best = -1
    var bestD = eps
    var dx = -1L
    while (dx <= 1) {
      var dy = -1L
      while (dy <= 1) {
        grid.get(key(cx + dx, cy + dy)) match {
          case Some(ids) =>
            var i = 0
            while (i < ids.length) {
              val d = words(ids(i)).dist(p)
              if (d <= bestD) { bestD = d; best = ids(i) }
              i += 1
            }
          case None =>
        }
        dy += 1
      }
      dx += 1
    }
    best
  }

  /** Assign p to a codeword within eps, creating one at p if needed. */
  def quantize(p: Pt): Int = {
    val i = nearestWithin(p)
    if (i >= 0) i else add(p)
  }

  def add(p: Pt): Int = {
    val i = words.length
    words += p
    grid.getOrElseUpdate(key(cellX(p), cellY(p)), mutable.ArrayBuffer.empty) += i
    i
  }
}

final class ReferencePiIndex(val gc: Double) {
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

/** Reconstructs every trajectory point from the summary alone — the check
  * that ({P_j[t]}, C, {b_i^t}, CQC) "are enough to reproduce any
  * trajectory" (§5). Uses only (trajId, t, part, b, cqc) from the codes.
  * Each id's last k codebook reconstructions are a list, oldest first. */
object ReferenceDecoder {
  def reconstruct(params: PpqParams, codewords: IndexedSeq[Pt],
                  steps: Seq[StepSummary], codes: Seq[CodedPoint]): Map[(Int, Int), Pt] = {
    val qt = params.gs.map(g => new CoordinateQuadtree(Cqc.sideFor(params.eps1, g)))
    val byT = codes.groupBy(_.t)
    val history = mutable.HashMap.empty[Int, List[Pt]]
    val out = mutable.HashMap.empty[(Int, Int), Pt]
    for (s <- steps.sortBy(_.t); cp <- byT.getOrElse(s.t, Seq.empty)) {
      val hist = history.getOrElse(cp.trajId, Nil)
      val coeffs = s.coeffs(s.parts.indexOf(cp.part))
      val pred =
        if (hist.length < params.k) Pt(0.0, 0.0)
        else Predictor.predict(coeffs, hist.map(_.x).toArray, hist.map(_.y).toArray, params.k - 1)
      val recon = pred + codewords(cp.b)
      val refined = qt match {
        case Some(q) => Cqc.refine(recon, CqcCode(cp.cqcBits, cp.cqcLen), params.eps1, params.gs.get, q)
        case None => recon
      }
      history(cp.trajId) = (hist :+ recon).takeRight(params.k)
      out((cp.trajId, cp.t)) = refined
    }
    out.toMap
  }
}

object ReferencePredictor {

  /** The ridge-regularised normal equations of the least-squares fit of
    * P (length k), summed one sample at a time: a sample's history is k
    * points, most recent first, read backwards from index `last` of
    * coordinate arrays, so a window buffer feeds them without copying. */
  final class NormalEquations(k: Int) {
    private val m: Array[Array[Double]] = { // plain arrays: `Array.ofDim` would look up a ClassTag
      val a = new Array[Array[Double]](k)
      var r = 0
      while (r < k) { a(r) = new Array[Double](k); r += 1 }
      a
    }
    private val v = new Array[Double](k)
    var rows = 0

    /** Adds the sample h(a) = (xs(last - a), ys(last - a)), a < k, with
      * target (tx, ty). */
    def add(xs: Array[Double], ys: Array[Double], last: Int, tx: Double, ty: Double): Unit = {
      var a = 0
      while (a < k) {
        val ax = xs(last - a); val ay = ys(last - a)
        v(a) += ax * tx + ay * ty
        var b = 0
        while (b < k) { m(a)(b) += ax * xs(last - b) + ay * ys(last - b); b += 1 }
        a += 1
      }
      rows += 1
    }

    /** P, with 1e-8 added to the diagonal; consumes the sums. */
    def solve(): Array[Double] = {
      var d = 0
      while (d < k) { m(d)(d) += 1e-8; d += 1 }
      Predictor.solve(m, v)
    }
  }

  /** `arFeatures` of the series (xs(from + t), ys(from + t)), t < n: the
    * last `window` samples are fitted on their k predecessors, in t order. */
  def arFeatures(xs: Array[Double], ys: Array[Double], from: Int, n: Int, k: Int, window: Int
                ): Array[Double] = {
    if (n < k + 2) return new Array[Double](k)
    val eq = new NormalEquations(k)
    var t = math.max(k, n - window)
    while (t < n) { eq.add(xs, ys, from + t - 1, xs(from + t), ys(from + t)); t += 1 }
    eq.solve()
  }
}

/** Page ids assigned sequentially to groups of points. */
final class ReferenceDiskLayout[K](val pageBytes: Int) {
  private val pagesOf = mutable.HashMap.empty[K, Seq[Int]]
  private var nextPage = 0
  private var fill = 0 // bytes used on the current page

  def add(key: K, numPoints: Int): Unit = {
    val bytes = numPoints.toLong * DiskSim.BytesPerPoint
    val pages = mutable.ArrayBuffer.empty[Int]
    var remaining = bytes
    while (remaining > 0) {
      if (fill >= pageBytes) { nextPage += 1; fill = 0 }
      if (pages.isEmpty || pages.last != nextPage) pages += nextPage
      val take = math.min(remaining, (pageBytes - fill).toLong)
      fill += take.toInt
      remaining -= take
    }
    if (pages.isEmpty) { pages += nextPage } // empty group still has a home page
    pagesOf(key) = pages.toSeq
  }

  def pages(key: K): Seq[Int] = pagesOf.getOrElse(key, Seq.empty)
}
