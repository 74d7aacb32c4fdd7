package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class PredictorSpec extends AnyFunSuite {

  test("solve: identity system") {
    val x = Predictor.solve(Array(Array(1.0, 0.0), Array(0.0, 1.0)), Array(3.0, 4.0))
    assert(math.abs(x(0) - 3.0) < 1e-9 && math.abs(x(1) - 4.0) < 1e-9)
  }

  test("solve: requires pivoting") {
    // first pivot is zero — partial pivoting must swap rows
    val x = Predictor.solve(Array(Array(0.0, 1.0), Array(2.0, 0.0)), Array(5.0, 6.0))
    assert(math.abs(x(0) - 3.0) < 1e-9 && math.abs(x(1) - 5.0) < 1e-9)
  }

  for (seed <- 0 until 10)
    test(s"solve: random well-conditioned system (seed=$seed)") {
      val rng = new Random(seed)
      val n = 2 + rng.nextInt(4)
      val a = Array.fill(n, n)(rng.nextDouble() * 2 - 1)
      for (i <- 0 until n) a(i)(i) += n // diagonally dominant
      val xTrue = Array.fill(n)(rng.nextDouble() * 4 - 2)
      val b = Array.tabulate(n)(i => (0 until n).map(j => a(i)(j) * xTrue(j)).sum)
      val x = Predictor.solve(a.map(_.clone), b.clone)
      for (i <- 0 until n) assert(math.abs(x(i) - xTrue(i)) < 1e-8)
    }

  // A sample's history is k = 2 points, oldest first, in coordinate arrays:
  // `NormalEquations.add` and `Predictor.predict` read it backwards from index 1.
  test("fit recovers exact linear recurrence coefficients") {
    // T^t = 1.7·T^{t-1} − 0.7·T^{t-2} (constant-velocity extrapolation mix)
    val c0 = 1.7; val c1 = -0.7
    val rng = new Random(1)
    val eq = new Predictor.NormalEquations(2)
    for (_ <- 0 until 40) {
      val xs = Array.fill(2)(rng.nextDouble() * 10); val ys = Array.fill(2)(rng.nextDouble() * 10)
      eq.add(xs, ys, 1, c0 * xs(1) + c1 * xs(0), c0 * ys(1) + c1 * ys(0))
    }
    val p = eq.solve()
    assert(math.abs(p(0) - c0) < 1e-5, s"got ${p.toSeq}")
    assert(math.abs(p(1) - c1) < 1e-5)
  }

  test("fit minimises residual vs perturbed coefficients") {
    val rng = new Random(2)
    val hist = Array.fill(60)((Array.fill(2)(rng.nextDouble()), Array.fill(2)(rng.nextDouble())))
    val target = hist.map { case (xs, ys) =>
      Pt(1.2 * xs(1) - 0.1 * xs(0) + rng.nextGaussian() * 0.01, 1.2 * ys(1) - 0.1 * ys(0) + rng.nextGaussian() * 0.01)
    }
    val eq = new Predictor.NormalEquations(2)
    for (((xs, ys), tg) <- hist.zip(target)) eq.add(xs, ys, 1, tg.x, tg.y)
    val p = eq.solve()
    def loss(c: Array[Double]): Double =
      hist.indices.map { i => val (xs, ys) = hist(i); target(i).dist(Predictor.predict(c, xs, ys, 1)) }
        .map(d => d * d).sum
    val best = loss(p)
    for (d <- Seq(0.05, -0.05)) {
      assert(best <= loss(Array(p(0) + d, p(1))) + 1e-12)
      assert(best <= loss(Array(p(0), p(1) + d)) + 1e-12)
    }
  }

  test("predict is linear in history") {
    // history (3, 4) then (1, 2), the most recent last
    assert(Predictor.predict(Array(2.0, -1.0), Array(3.0, 1.0), Array(4.0, 2.0), 1) == Pt(-1.0, 0.0))
  }

  private def arFeatures(xs: Array[Double], ys: Array[Double], window: Int): Array[Double] =
    Predictor.arFeatures(new Predictor.NormalEquations(2), xs, ys, 0, xs.length, window)

  test("arFeatures returns zeros for short series") {
    assert(arFeatures(Array(0.0, 1.0), Array(0.0, 1.0), 10).toSeq == Seq(0.0, 0.0))
  }

  test("arFeatures recovers the AR process of one trajectory") {
    // positions follow x_t = 1.9 x_{t-1} - 0.9 x_{t-2} (smooth motion)
    val xs = new Array[Double](32); val ys = new Array[Double](32)
    xs(1) = 1.0; ys(1) = 0.5
    for (t <- 2 until 32) { xs(t) = 1.9 * xs(t - 1) - 0.9 * xs(t - 2); ys(t) = 1.9 * ys(t - 1) - 0.9 * ys(t - 2) }
    val f = arFeatures(xs, ys, 20)
    assert(math.abs(f(0) - 1.9) < 1e-4, s"got ${f.toSeq}")
    assert(math.abs(f(1) + 0.9) < 1e-4)
  }

  test("arFeatures of constant series predicts the constant") {
    val f = arFeatures(Array.fill(20)(5.0), Array.fill(20)(5.0), 10)
    val pred = Predictor.predict(f, Array(5.0, 5.0), Array(5.0, 5.0), 1)
    assert(pred.dist(Pt(5, 5)) < 1e-6)
  }
}
