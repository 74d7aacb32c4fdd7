package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CqcSpec extends AnyFunSuite {

  // Exact encode/decode round-trip for every cell of every grid side —
  // the property that makes CQC's "accurate reconstruction" claim hold.
  for (side <- 1 to 40)
    test(s"quadtree round-trips every cell (side=$side)") {
      val qt = new CoordinateQuadtree(side)
      for (cx <- 0 until side; cy <- 0 until side) {
        val code = qt.encode(cx, cy)
        assert(qt.decode(code) == ((cx, cy)), s"cell ($cx,$cy)")
        assert(code.len <= qt.maxCodeBits)
      }
    }

  test("side 1 has empty code") {
    val qt = new CoordinateQuadtree(1)
    val c = qt.encode(0, 0)
    assert(c.len == 0 && qt.decode(c) == ((0, 0)))
  }

  test("codes are unique per cell (side=11)") {
    val qt = new CoordinateQuadtree(11)
    val seen = scala.collection.mutable.HashSet.empty[(Long, Int)]
    for (cx <- 0 until 11; cy <- 0 until 11) {
      val c = qt.encode(cx, cy)
      assert(seen.add((c.bits, c.len)), s"duplicate code for ($cx,$cy)")
    }
  }

  test("code length is ~2 bits per level (powers of two)") {
    assert(new CoordinateQuadtree(2).maxCodeBits == 2)
    assert(new CoordinateQuadtree(4).maxCodeBits == 4)
    assert(new CoordinateQuadtree(8).maxCodeBits == 6)
    assert(new CoordinateQuadtree(16).maxCodeBits == 8)
  }

  test("padded odd grid needs one extra level at most (5x5 example of Fig. 3)") {
    val qt = new CoordinateQuadtree(5)
    assert(qt.maxCodeBits == 6) // 5 -> 3 -> 2 -> 1
  }

  test("encode rejects out-of-grid cells") {
    val qt = new CoordinateQuadtree(4)
    intercept[IllegalArgumentException](qt.encode(4, 0))
    intercept[IllegalArgumentException](qt.encode(0, -1))
  }

  test("the quadtree rejects a side outside 1..MaxSide, naming the side and the range") {
    for (side <- Seq(0, -3, CoordinateQuadtree.MaxSide + 1)) {
      val e = intercept[IllegalArgumentException](new CoordinateQuadtree(side))
      assert(e.getMessage.contains(s"side out of range: $side") &&
        e.getMessage.contains(s"1..${CoordinateQuadtree.MaxSide}"), e.getMessage)
    }
    assert(new CoordinateQuadtree(CoordinateQuadtree.MaxSide).side == CoordinateQuadtree.MaxSide)
  }

  test("sideFor matches the paper's defaults (eps1=111m, gs=50m => 5 cells)") {
    // 2*eps1/gs = 2*0.001/(50/111000) = 4.44 -> 5
    assert(Cqc.sideFor(0.001, Geo.toDegrees(50.0)) == 5)
    assert(Cqc.sideFor(0.001, 0.001) == 2)
    assert(Cqc.sideFor(0.001, 0.002) == 1)
  }

  // Lemma 3: refined reconstruction error <= (sqrt2/2)*gs whenever the
  // codebook bound |actual - recon| <= eps1 held.
  for (seed <- 0 until 12)
    test(s"Lemma 3 bound holds for random points within the error ball (seed=$seed)") {
      val rng = new Random(seed)
      val eps1 = 0.001
      val gs = Geo.toDegrees(20.0 + rng.nextDouble() * 80.0)
      val qt = new CoordinateQuadtree(Cqc.sideFor(eps1, gs))
      val bound = math.sqrt(2.0) / 2.0 * gs + 1e-12
      for (_ <- 0 until 300) {
        val recon = Pt(rng.nextDouble() * 0.2 - 8.6, 41.1 + rng.nextDouble() * 0.1)
        val ang = rng.nextDouble() * 2 * math.Pi
        val rad = rng.nextDouble() * eps1 * 0.999
        val actual = Pt(recon.x + rad * math.cos(ang), recon.y + rad * math.sin(ang))
        val code = Cqc.encode(actual, recon, eps1, gs, qt)
        val refined = Cqc.refine(recon, code, eps1, gs, qt)
        assert(refined.dist(actual) <= bound,
          s"refined err ${Geo.toMeters(refined.dist(actual))}m > bound ${Geo.toMeters(bound)}m")
      }
    }

  test("refinement strictly improves any deviation above the Lemma 3 bound") {
    val rng = new Random(77)
    val eps1 = 0.001
    val gs = Geo.toDegrees(50.0)
    val qt = new CoordinateQuadtree(Cqc.sideFor(eps1, gs))
    val bound = math.sqrt(2.0) / 2.0 * gs
    var checked = 0
    for (_ <- 0 until 1000) {
      val recon = Pt(rng.nextDouble(), rng.nextDouble())
      val ang = rng.nextDouble() * 2 * math.Pi
      val rad = rng.nextDouble() * eps1 * 0.999
      val actual = Pt(recon.x + rad * math.cos(ang), recon.y + rad * math.sin(ang))
      val refined = Cqc.refine(recon, Cqc.encode(actual, recon, eps1, gs, qt), eps1, gs, qt)
      // deviations already inside the bound may move within it, but any
      // deviation beyond the bound is always pulled under it
      if (rad > bound) {
        checked += 1
        assert(refined.dist(actual) < recon.dist(actual))
        assert(refined.dist(actual) <= bound + 1e-15)
      }
    }
    assert(checked > 100) // the sample actually exercised the interesting case
  }

  test("identical (actual,recon) pairs produce identical codes (template is fixed)") {
    val eps1 = 0.001; val gs = Geo.toDegrees(50.0)
    val qt1 = new CoordinateQuadtree(Cqc.sideFor(eps1, gs))
    val qt2 = new CoordinateQuadtree(Cqc.sideFor(eps1, gs))
    val actual = Pt(0.0003, -0.0002); val recon = Pt(0.0, 0.0)
    assert(Cqc.encode(actual, recon, eps1, gs, qt1) == Cqc.encode(actual, recon, eps1, gs, qt2))
  }

  test("points at the eps1 boundary are clamped into the grid") {
    val eps1 = 0.001; val gs = Geo.toDegrees(50.0)
    val qt = new CoordinateQuadtree(Cqc.sideFor(eps1, gs))
    val recon = Pt(0, 0)
    val actual = Pt(eps1, eps1) // exactly on the (excluded) corner
    val code = Cqc.encode(actual, recon, eps1, gs, qt)
    val refined = Cqc.refine(recon, code, eps1, gs, qt)
    assert(refined.dist(actual) <= math.sqrt(2) * gs) // clamp costs at most one cell
  }
}
