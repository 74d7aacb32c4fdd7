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

  /** Least-squares coefficients P (length k) minimising
    * Σ_i ||target(i) − Σ_j P(j)·hist(i)(j)||₂² where hist(i)(j) is the j-th
    * most recent reconstructed point of sample i. Ridge-regularised normal
    * equations (1e-8 on the diagonal) keep near-collinear histories stable. */
  def fit(hist: Array[Array[Pt]], target: Array[Pt], k: Int): Array[Double] = {
    val m = Array.ofDim[Double](k, k)
    val v = new Array[Double](k)
    var i = 0
    while (i < target.length) {
      val h = hist(i); val tp = target(i)
      var a = 0
      while (a < k) {
        v(a) += h(a).x * tp.x + h(a).y * tp.y
        var b = 0
        while (b < k) { m(a)(b) += h(a).x * h(b).x + h(a).y * h(b).y; b += 1 }
        a += 1
      }
      i += 1
    }
    var d = 0
    while (d < k) { m(d)(d) += 1e-8; d += 1 }
    solve(m, v)
  }

  def predict(coeffs: Array[Double], hist: Array[Pt]): Pt = {
    var px = 0.0; var py = 0.0
    var j = 0
    while (j < coeffs.length) { px += coeffs(j) * hist(j).x; py += coeffs(j) * hist(j).y; j += 1 }
    Pt(px, py)
  }

  /** Lag-k AR(k) coefficients of one trajectory's recent window — the
    * autocorrelation feature a_i^t used for partitioning (§3.2.1). Returns
    * zeros until the trajectory has at least k+2 samples. */
  def arFeatures(series: collection.IndexedSeq[Pt], k: Int, window: Int): Array[Double] = {
    val n = series.length
    if (n < k + 2) return new Array[Double](k)
    val start = math.max(k, n - window)
    val rows = n - start
    val hist = new Array[Array[Pt]](rows)
    val tgt = new Array[Pt](rows)
    var t = start
    while (t < n) {
      val h = new Array[Pt](k)
      var j = 0
      while (j < k) { h(j) = series(t - 1 - j); j += 1 }
      hist(t - start) = h
      tgt(t - start) = series(t)
      t += 1
    }
    fit(hist, tgt, k)
  }
}
