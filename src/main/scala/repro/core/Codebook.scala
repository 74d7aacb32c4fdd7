package repro.core

import java.util.concurrent.atomic.AtomicBoolean
import scala.collection.mutable

/** Incrementally grown codebook guaranteeing ‖e − C(b)‖₂ ≤ eps for every
  * assignment (Def. 3.2 / Eq. 3). New codewords are appended whenever a
  * sample has no codeword within the bound — the paper's "additional
  * codewords are added to update C" rule for dynamic data. A uniform grid
  * hash of cell size eps makes nearest-within-eps O(1) amortised: each
  * cell is a slot of a primitive `SlotTable` and chains its words in
  * insertion order (DESIGN.md §7.2). */
final class ErrorBoundedCodebook(val eps: Double) {
  require(eps > 0, "eps must be positive")
  private val words = mutable.ArrayBuffer.empty[Pt]
  private var xs = new Array[Double](64)
  private var ys = new Array[Double](64)
  private var next = new Array[Int](64) // the next word in the same cell, or -1
  private val cells = new SlotTable
  private var head = new Array[Int](64) // first and last word of each cell slot
  private var tail = new Array[Int](64)

  private def cellX(p: Pt): Long = math.floor(p.x / eps).toLong
  private def cellY(p: Pt): Long = math.floor(p.y / eps).toLong

  def size: Int = words.length
  def apply(i: Int): Pt = words(i)
  def codewords: IndexedSeq[Pt] = words.toIndexedSeq

  /** Index of the nearest codeword within eps, or -1 if none qualifies.
    * A ball of radius eps around p only reaches the 3×3 cell neighbourhood.
    * Cells are visited row by row and each cell's words in insertion order;
    * `<=` lets the last of equally near words win. */
  def nearestWithin(p: Pt): Int = {
    val cx = cellX(p); val cy = cellY(p)
    var best = -1
    var bestD = eps
    var dx = -1L
    while (dx <= 1) {
      var dy = -1L
      while (dy <= 1) {
        val c = cells.slot(SlotTable.cellKey(cx + dx, cy + dy))
        if (c >= 0) {
          var w = head(c)
          while (w >= 0) {
            // Pt.dist's arithmetic, on the stored coordinates
            val ex = xs(w) - p.x; val ey = ys(w) - p.y
            val d = math.sqrt(ex * ex + ey * ey)
            if (d <= bestD) { bestD = d; best = w }
            w = next(w)
          }
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
    if (i == xs.length) {
      xs = java.util.Arrays.copyOf(xs, 2 * i); ys = java.util.Arrays.copyOf(ys, 2 * i)
      next = java.util.Arrays.copyOf(next, 2 * i)
    }
    xs(i) = p.x; ys(i) = p.y; next(i) = -1
    val fresh = cells.size
    val c = cells.slotOrAdd(SlotTable.cellKey(cellX(p), cellY(p)))
    if (c == fresh) { // a new cell
      if (c == head.length) { head = java.util.Arrays.copyOf(head, 2 * c); tail = java.util.Arrays.copyOf(tail, 2 * c) }
      head(c) = i
    } else next(tail(c)) = i
    tail(c) = i
    i
  }
}

/** Lloyd's k-means over d-dimensional vectors — the fixed-size vector
  * quantizer used by the equal-budget experiments (Tables 2–4) and by the
  * baselines. Deterministic in (input, k, seed); empty clusters are
  * reseeded from the point farthest from its centroid.
  *
  * The assignment step is an exact pruned nearest-centroid search: the
  * centroids are kept ordered by coordinate 0, each point sweeps that
  * order in both directions from its previous centroid (on the first pass,
  * from its own coordinate 0), and a direction that has passed the point
  * stops once the coordinate-0 gap alone exceeds the best squared distance
  * so far. The result (assignments, centroids, iteration count) is
  * bit-identical to scanning every centroid; DESIGN.md §7.1 gives the
  * argument. Vectors must be finite and of one dimension
  * (`IllegalArgumentException` otherwise). */
object KMeans {

  /** Vectors from outside the program must be finite and of one non-zero
    * dimension: a NaN would silently join cluster 0, and the ordered sweep
    * needs ordered keys. */
  private def requireFinite(vecs: Array[Array[Double]]): Unit = {
    val dim = vecs(0).length
    require(dim > 0, "vectors must have at least one dimension")
    var i = 0
    while (i < vecs.length) {
      val v = vecs(i)
      require(v.length == dim, s"vector $i has dimension ${v.length}, expected $dim")
      var d = 0
      while (d < dim) {
        if (java.lang.Double.isNaN(v(d)) || java.lang.Double.isInfinite(v(d)))
          throw new IllegalArgumentException(s"vector $i has a non-finite coordinate ${v(d)}")
        d += 1
      }
      i += 1
    }
  }

  /** Squared distance between a(aOff until aOff + dim) and b(bOff until bOff + dim). */
  private def dist2(a: Array[Double], aOff: Int, b: Array[Double], bOff: Int, dim: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < dim) { val d = a(aOff + i) - b(bOff + i); s += d * d; i += 1 }
    s
  }

  /** Euclidean distance between a and b, summed as `dist2` sums. */
  private[core] def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(dist2(a, 0, b, 0, a.length))

  /** Insertion sort of centroid ids by coordinate 0. Centroids move little
    * between iterations, so starting from the previous order this is close
    * to linear. */
  private def sortByFirst(order: Array[Int], cents: Array[Array[Double]]): Unit = {
    var i = 1
    while (i < order.length) {
      val c = order(i); val x = cents(c)(0)
      var j = i - 1
      while (j >= 0 && cents(order(j))(0) > x) { order(j + 1) = order(j); j -= 1 }
      order(j + 1) = c
      i += 1
    }
  }

  def cluster(vecs: Array[Array[Double]], k0: Int, iters: Int = 15, seed: Long = 7
             ): (Array[Array[Double]], Array[Int]) = cluster(vecs, k0, iters, seed, NeverAbandoned)

  /** Never set: the flag of a call that nobody abandons. */
  private[core] val NeverAbandoned = new AtomicBoolean

  /** `cluster`, returning early (with a result the caller must discard) once
    * `abandoned` reads true between Lloyd iterations. */
  private[core] def cluster(vecs: Array[Array[Double]], k0: Int, iters: Int, seed: Long,
                            abandoned: AtomicBoolean): (Array[Array[Double]], Array[Int]) = {
    val n = vecs.length
    if (n == 0) return (Array.empty, Array.empty)
    requireFinite(vecs)
    val k = math.max(1, math.min(k0, n))
    val dim = vecs(0).length
    // Initial centroids: the first k of a seeded shuffle of the points,
    // drawn as scala.util.Random.shuffle draws it (swap m - 1 with
    // nextInt(m) for m = n down to 2), on primitive ids.
    val rng = new java.util.Random(seed)
    val perm = Array.range(0, n)
    var m = n
    while (m >= 2) { val j = rng.nextInt(m); val t = perm(m - 1); perm(m - 1) = perm(j); perm(j) = t; m -= 1 }
    val cents = Array.tabulate(k)(c => vecs(perm(c)).clone)
    val flat = new Array[Double](n * dim) // point i at i * dim
    var i = 0
    while (i < n) { System.arraycopy(vecs(i), 0, flat, i * dim, dim); i += 1 }
    val assign = new Array[Int](n)
    java.util.Arrays.fill(assign, -1)
    val order = Array.range(0, k) // centroid ids by coordinate 0
    val posOf = new Array[Int](k) // position of each centroid in `order`
    val sorted = new Array[Double](k * dim) // centroid order(p) at p * dim
    val sums = new Array[Double](k * dim) // centroid c's sums at c * dim
    val cnt = new Array[Int](k)
    var it = 0
    var changed = true
    val far = new Array[Double](n)
    while (it < iters && changed && !abandoned.get) {
      changed = false
      sortByFirst(order, cents)
      var p = 0
      while (p < k) { posOf(order(p)) = p; System.arraycopy(cents(order(p)), 0, sorted, p * dim, dim); p += 1 }
      i = 0
      while (i < n) {
        val off = i * dim; val x = flat(off)
        // Start at the previous centroid, which is usually still the
        // nearest; on the first pass, at the first centroid not left of x.
        var lo = 0
        if (assign(i) >= 0) lo = posOf(assign(i))
        else {
          var hi = k
          while (lo < hi) { val mid = (lo + hi) >>> 1; if (sorted(mid * dim) < x) lo = mid + 1 else hi = mid }
        }
        // Sweep right from lo and left from lo - 1. Once a direction moves
        // away from x, dist2 >= fl(dx*dx) makes `dx*dx > bd` a stop that
        // skips only centroids that can neither beat nor tie the best; ties
        // go to the lowest centroid id, as in a full scan.
        var best = 0; var bd = Double.MaxValue
        p = lo
        while (p < k && { val dx = x - sorted(p * dim); dx > 0 || dx * dx <= bd }) {
          val c = order(p); val d = dist2(flat, off, sorted, p * dim, dim)
          if (d < bd || (d == bd && c < best)) { bd = d; best = c }
          p += 1
        }
        p = lo - 1
        while (p >= 0 && { val dx = x - sorted(p * dim); dx < 0 || dx * dx <= bd }) {
          val c = order(p); val d = dist2(flat, off, sorted, p * dim, dim)
          if (d < bd || (d == bd && c < best)) { bd = d; best = c }
          p -= 1
        }
        far(i) = bd
        if (assign(i) != best) { assign(i) = best; changed = true }
        i += 1
      }
      java.util.Arrays.fill(sums, 0.0)
      java.util.Arrays.fill(cnt, 0)
      i = 0
      while (i < n) {
        val c = assign(i); cnt(c) += 1
        var d = 0
        while (d < dim) { sums(c * dim + d) += flat(i * dim + d); d += 1 }
        i += 1
      }
      var c = 0
      while (c < k) {
        if (cnt(c) > 0) {
          var d = 0
          while (d < dim) { cents(c)(d) = sums(c * dim + d) / cnt(c); d += 1 }
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

  def clusterPts(pts: Array[Pt], k: Int, iters: Int = 15, seed: Long = 7): (Array[Pt], Array[Int]) = {
    val (cs, as) = cluster(pts.map(p => Array(p.x, p.y)), k, iters, seed)
    (cs.map(c => Pt(c(0), c(1))), as)
  }

  def cluster1D(xs: Array[Double], k: Int, iters: Int = 15, seed: Long = 7): (Array[Double], Array[Int]) = {
    val (cs, as) = cluster(xs.map(x => Array(x)), k, iters, seed)
    (cs.map(_(0)), as)
  }
}
