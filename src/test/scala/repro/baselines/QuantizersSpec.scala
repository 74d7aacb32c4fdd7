package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TrajGen
import scala.util.Random

class QuantizersSpec extends AnyFunSuite {

  private def cloud(seed: Int, n: Int = 1000, span: Double = 1.0): Array[Pt] = {
    val rng = new Random(seed)
    Array.fill(n)(Pt(rng.nextDouble() * span, rng.nextDouble() * span))
  }

  // --- error-bounded variants: the deviation guarantee each method claims ---

  for (seed <- 0 until 5)
    test(s"Q-trajectory bounded respects eps (seed=$seed)") {
      val q = new QTrajectory.Bounded(0.05)
      for (p <- cloud(seed)) assert(q.quantize(p).dist(p) <= 0.05 + 1e-12)
      assert(q.codewords > 0)
    }

  for (seed <- 0 until 5)
    test(s"PQ bounded respects eps jointly across dimensions (seed=$seed)") {
      val q = new ProductQuantization.Bounded(0.05)
      for (p <- cloud(seed + 10)) assert(q.quantize(p).dist(p) <= 0.05 + 1e-12)
    }

  for (seed <- 0 until 5)
    test(s"RQ bounded respects eps after the residual stage (seed=$seed)") {
      val q = new ResidualQuantization.Bounded(0.05)
      for (p <- cloud(seed + 20)) assert(q.quantize(p).dist(p) <= 0.05 + 1e-12)
    }

  test("Q-trajectory bounded stores raw-space codewords inside the bbox") {
    val data = TrajGen.portoLike(n = 40, len = 30, seed = 5)
    val q = new QTrajectory.Bounded(0.001)
    for (t <- 1 to data.len; (_, p) <- data.pointsAt(t)) assert(q.quantize(p).dist(p) <= 0.001 + 1e-12)
    // raw-space codewords live inside the dataset bbox neighbourhood
    for (w <- q.codebook.codewords)
      assert(data.bbox.x0 - 0.01 <= w.x && w.x <= data.bbox.x1 + 0.01)
  }

  test("PQ stores fewer codewords than Q-trajectory on a 2-D grid of data") {
    val pts = cloud(31, n = 4000, span = 2.0)
    val qt = new QTrajectory.Bounded(0.05)
    val pq = new ProductQuantization.Bounded(0.05)
    pts.foreach(p => { qt.quantize(p); pq.quantize(p) })
    // n_x + n_y grows linearly with span; Q-trajectory's 2-D cover grows
    // quadratically — the Table 6 ordering.
    assert(pq.codewords < qt.codewords, s"pq=${pq.codewords} qt=${qt.codewords}")
  }

  test("RQ stores fewer codewords than Q-trajectory (coarse+residual sharing)") {
    val pts = cloud(32, n = 4000, span = 2.0)
    val qt = new QTrajectory.Bounded(0.02)
    val rq = new ResidualQuantization.Bounded(0.02)
    pts.foreach(p => { qt.quantize(p); rq.quantize(p) })
    assert(rq.codewords < qt.codewords, s"rq=${rq.codewords} qt=${qt.codewords}")
  }

  // --- fixed-budget variants: the Table 2/4 protocol ---

  test("budget steps return one reconstruction per input point") {
    val pts = cloud(41, n = 100)
    assert(QTrajectory.budgetStep(pts, 8, 1).length == 100)
    assert(ProductQuantization.budgetStep(pts, 8, 1).length == 100)
    assert(ResidualQuantization.budgetStep(pts, 8, 1).length == 100)
  }

  test("bigger budgets reduce reconstruction error (all three methods)") {
    val pts = cloud(42, n = 800, span = 2.0)
    def mae(rec: Array[Pt]): Double = pts.indices.map(i => rec(i).dist(pts(i))).sum / pts.length
    for (step <- Seq(QTrajectory.budgetStep _, ProductQuantization.budgetStep _,
                     ResidualQuantization.budgetStep _)) {
      val small = mae(step(pts, 4, 7))
      val large = mae(step(pts, 256, 7))
      assert(large < small, s"small=$small large=$large")
    }
  }

  test("budget >= n gives (near) zero error for Q-trajectory") {
    val pts = cloud(43, n = 50)
    val rec = QTrajectory.budgetStep(pts, 64, 1)
    val mae = pts.indices.map(i => rec(i).dist(pts(i))).sum / pts.length
    assert(mae < 1e-9)
  }

  test("PQ budget reconstructions live on the centroid product grid") {
    val pts = cloud(44, n = 200)
    val rec = ProductQuantization.budgetStep(pts, 8, 1)
    val xs = rec.map(_.x).distinct
    val ys = rec.map(_.y).distinct
    assert(xs.length <= 4 && ys.length <= 4) // v/2 = 4 centroids per dim
    assert(rec.map(p => (p.x, p.y)).distinct.length <= 16)
  }

  test("RQ budget with v=2 uses one centroid per stage") {
    val pts = cloud(45, n = 100)
    val rec = ResidualQuantization.budgetStep(pts, 2, 1)
    assert(rec.map(p => (p.x, p.y)).distinct.length == 1)
  }
}
