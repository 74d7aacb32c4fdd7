package repro.core

/** Linear prediction (Eq. 1/2/6): the current point is estimated as a
  * scalar-weighted sum of the previous k *reconstructed* points; the same
  * coefficients apply to x and y (both dimensions contribute equations to
  * the least-squares fit, as in the 1-D stream predictor the paper extends).
  */
object Predictor {

  /** Gaussian elimination with partial pivoting. `a` and `b` are consumed. */
  def solve(a: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    var col = 0
    while (col < n) {
      var piv = col
      var r = col + 1
      while (r < n) { if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r; r += 1 }
      if (piv != col) { val tr = a(piv); a(piv) = a(col); a(col) = tr
        val tb = b(piv); b(piv) = b(col); b(col) = tb }
      val d = a(col)(col)
      if (math.abs(d) > 1e-300) {
        r = col + 1
        while (r < n) {
          val f = a(r)(col) / d
          if (f != 0.0) {
            var c = col
            while (c < n) { a(r)(c) -= f * a(col)(c); c += 1 }
            b(r) -= f * b(col)
          }
          r += 1
        }
      }
      col += 1
    }
    val x = new Array[Double](n)
    var i = n - 1
    while (i >= 0) {
      var s = b(i)
      var j = i + 1
      while (j < n) { s -= a(i)(j) * x(j); j += 1 }
      x(i) = if (math.abs(a(i)(i)) > 1e-300) s / a(i)(i) else 0.0
      i -= 1
    }
    x
  }

  /** The ridge-regularised normal equations of the least-squares fit of
    * P (length k) minimising Σ_i ||target(i) − Σ_j P(j)·h_i(j)||₂²; the
    * ridge (1e-8 on the diagonal) keeps near-collinear histories stable.
    * They are summed one sample at a time: a sample's history is k
    * points, most recent first, read backwards from index `last` of
    * coordinate arrays, so a window buffer feeds them without copying.
    * Only the upper triangle is summed; `solve` mirrors it (DESIGN.md
    * §7.6). One instance serves any number of fits: `reset` starts the
    * next one. */
  private[core] final class NormalEquations(val k: Int) {
    private val m: Array[Array[Double]] = { // plain arrays: `Array.ofDim` would look up a ClassTag
      val a = new Array[Array[Double]](k)
      var r = 0
      while (r < k) { a(r) = new Array[Double](k); r += 1 }
      a
    }
    private val v = new Array[Double](k)

    /** Clears the sums, including what `solve` left in them. */
    def reset(): Unit = {
      var a = 0
      while (a < k) {
        val row = m(a)
        var b = 0
        while (b < k) { row(b) = 0.0; b += 1 }
        v(a) = 0.0
        a += 1
      }
    }

    /** Adds the sample h(a) = (xs(last - a), ys(last - a)), a < k, with
      * target (tx, ty). */
    def add(xs: Array[Double], ys: Array[Double], last: Int, tx: Double, ty: Double): Unit = {
      var a = 0
      while (a < k) {
        val ax = xs(last - a); val ay = ys(last - a)
        v(a) += ax * tx + ay * ty
        val row = m(a)
        var b = a
        while (b < k) { row(b) += ax * xs(last - b) + ay * ys(last - b); b += 1 }
        a += 1
      }
    }

    /** P, with 1e-8 added to the diagonal; consumes the sums. With no
      * sample added since `reset`, P is exactly 0. */
    def solve(): Array[Double] = {
      var a = 0
      while (a < k) {
        var b = a + 1
        while (b < k) { m(b)(a) = m(a)(b); b += 1 }
        m(a)(a) += 1e-8
        a += 1
      }
      Predictor.solve(m, v)
    }
  }

  /** Σ_j P(j)·h(j) over the history h(j) = (xs(last - j), ys(last - j)),
    * j < k, most recent first. */
  private[core] def predict(coeffs: Array[Double], xs: Array[Double], ys: Array[Double], last: Int): Pt = {
    var px = 0.0; var py = 0.0
    var j = 0
    while (j < coeffs.length) { px += coeffs(j) * xs(last - j); py += coeffs(j) * ys(last - j); j += 1 }
    Pt(px, py)
  }

  /** Lag-k AR(k) coefficients, k = `eq.k`, of one trajectory's recent
    * window (xs(from + t), ys(from + t)), t < n — the autocorrelation
    * feature a_i^t used for partitioning (§3.2.1). The last `window`
    * samples are fitted on their k predecessors, in t order, summed in
    * `eq`. Returns zeros until the trajectory has at least k+2 samples. */
  private[core] def arFeatures(eq: NormalEquations, xs: Array[Double], ys: Array[Double], from: Int, n: Int,
                               window: Int): Array[Double] = {
    val k = eq.k
    if (n < k + 2) return new Array[Double](k)
    eq.reset()
    var t = math.max(k, n - window)
    while (t < n) { eq.add(xs, ys, from + t - 1, xs(from + t), ys(from + t)); t += 1 }
    eq.solve()
  }
}
