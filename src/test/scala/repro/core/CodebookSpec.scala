package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CodebookSpec extends AnyFunSuite {

  test("first point becomes a codeword at itself") {
    val cb = new ErrorBoundedCodebook(0.1)
    val b = cb.quantize(Pt(1.0, 2.0))
    assert(b == 0 && cb.size == 1 && cb(0) == Pt(1.0, 2.0))
  }

  test("point within eps reuses an existing codeword") {
    val cb = new ErrorBoundedCodebook(0.1)
    cb.quantize(Pt(0, 0))
    val b = cb.quantize(Pt(0.05, 0.05))
    assert(b == 0 && cb.size == 1)
  }

  test("point beyond eps creates a new codeword") {
    val cb = new ErrorBoundedCodebook(0.1)
    cb.quantize(Pt(0, 0))
    val b = cb.quantize(Pt(0.5, 0))
    assert(b == 1 && cb.size == 2)
  }

  test("nearestWithin picks the nearest of several candidates") {
    val cb = new ErrorBoundedCodebook(1.0)
    cb.add(Pt(0, 0)); cb.add(Pt(0.5, 0))
    assert(cb.nearestWithin(Pt(0.45, 0)) == 1)
    assert(cb.nearestWithin(Pt(0.1, 0)) == 0)
    assert(cb.nearestWithin(Pt(5, 5)) == -1)
  }

  test("negative coordinates hash correctly across grid cells") {
    val cb = new ErrorBoundedCodebook(0.01)
    cb.quantize(Pt(-1.0005, -2.0005))
    assert(cb.quantize(Pt(-1.0006, -2.0006)) == 0) // same ball, maybe neighbour cell
    assert(cb.size == 1)
  }

  // Invariant (Def. 3.2): every quantized sample is within eps of its codeword.
  for (seed <- 0 until 10)
    test(s"error bound invariant holds on random streams (seed=$seed)") {
      val rng = new Random(seed)
      val eps = 0.05 + rng.nextDouble() * 0.2
      val cb = new ErrorBoundedCodebook(eps)
      for (_ <- 0 until 2000) {
        val p = Pt(rng.nextGaussian() * 2, rng.nextGaussian() * 2)
        val b = cb.quantize(p)
        assert(cb(b).dist(p) <= eps + 1e-12)
      }
      // codebook should be far smaller than the stream for a generous eps
      assert(cb.size < 2000)
    }

  test("codebook size is bounded by ball-packing of the data range") {
    val rng = new Random(7)
    val cb = new ErrorBoundedCodebook(0.5)
    for (_ <- 0 until 5000) cb.quantize(Pt(rng.nextDouble(), rng.nextDouble())) // unit square
    // balls of radius 0.5: a handful suffice for the unit square
    assert(cb.size <= 16, s"size=${cb.size}")
  }

  test("KMeans: k >= n assigns every point its own centroid region (zero loss)") {
    val pts = Array(Pt(0, 0), Pt(1, 1), Pt(2, 2))
    val (cents, assign) = KMeans.clusterPts(pts, 10)
    assert(cents.length == 3)
    for (i <- pts.indices) assert(cents(assign(i)).dist(pts(i)) < 1e-12)
  }

  test("KMeans: separates two well-separated blobs") {
    val rng = new Random(3)
    val a = Array.fill(50)(Pt(rng.nextGaussian() * 0.1, rng.nextGaussian() * 0.1))
    val b = Array.fill(50)(Pt(10 + rng.nextGaussian() * 0.1, 10 + rng.nextGaussian() * 0.1))
    val (cents, assign) = KMeans.clusterPts(a ++ b, 2)
    val ca = assign.take(50).toSet
    val cbb = assign.drop(50).toSet
    assert(ca.size == 1 && cbb.size == 1 && ca != cbb)
    assert(cents.exists(_.dist(Pt(0, 0)) < 0.2) && cents.exists(_.dist(Pt(10, 10)) < 0.2))
  }

  test("KMeans: deterministic in seed") {
    val rng = new Random(4)
    val pts = Array.fill(200)(Pt(rng.nextDouble(), rng.nextDouble()))
    val r1 = KMeans.clusterPts(pts, 8, seed = 42)
    val r2 = KMeans.clusterPts(pts, 8, seed = 42)
    assert(r1._1.toSeq == r2._1.toSeq && r1._2.toSeq == r2._2.toSeq)
  }

  test("KMeans: empty input") {
    val (c, a) = KMeans.cluster(Array.empty, 4)
    assert(c.isEmpty && a.isEmpty)
  }

  for (seed <- 20 until 26)
    test(s"KMeans never loses points and never exceeds k clusters (seed=$seed)") {
      val rng = new Random(seed)
      val pts = Array.fill(120)(Pt(rng.nextDouble() * 5, rng.nextDouble() * 5))
      val k = 1 + rng.nextInt(12)
      val (cents, assign) = KMeans.clusterPts(pts, k)
      assert(assign.length == pts.length)
      assert(cents.length <= k)
      assert(assign.forall(a => a >= 0 && a < cents.length))
    }

  test("cluster1D quantizes a 1-D stream") {
    val xs = Array(0.0, 0.1, 0.2, 10.0, 10.1, 10.2)
    val (cents, assign) = KMeans.cluster1D(xs, 2)
    assert(cents.length == 2)
    assert(assign.take(3).toSet.size == 1 && assign.drop(3).toSet.size == 1)
  }

  test("KMeans rejects NaN and infinite vectors") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val vecs = Array(Array(0.0, 0.0), Array(1.0, bad), Array(2.0, 2.0))
      val e = intercept[IllegalArgumentException](KMeans.cluster(vecs, 2))
      assert(e.getMessage.contains("non-finite"))
    }
    intercept[IllegalArgumentException](KMeans.cluster1D(Array(0.0, Double.NaN), 1))
  }
}
