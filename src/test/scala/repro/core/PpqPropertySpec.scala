package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.data.TrajGen
import repro.eval.EvalConfig

/** The paper's per-point guarantees over generated Porto-like and
  * GeoLife-like datasets, in every partition mode, with CQC on and off:
  * the codebook reconstruction is within ε₁ of the raw point (Def. 3.2),
  * the CQC-refined one within (√2/2)·g_s (Lemma 3), and the decoder
  * reproduces every refined point from the summary alone (§5). */
class PpqPropertySpec extends AnyFunSuite {

  private val cases = for {
    geolife <- Gen.oneOf(false, true)
    n <- Gen.choose(5, 60)
    len <- Gen.choose(3, 25)
    seed <- Gen.long
    mode <- Gen.oneOf(PartitionMode.Spatial, PartitionMode.Autocorr, PartitionMode.Single)
    useCqc <- Gen.oneOf(false, true)
  } yield (geolife, n, len, seed, mode, useCqc)

  test("every point: recon within eps1, refined within (sqrt2/2)*gs, decoded = refined") {
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(20201019L)
    val r = Test.check(params, Prop.forAllNoShrink(cases) { case (geolife, n, len, seed, mode, useCqc) =>
      val (data, cfg) =
        if (geolife) (TrajGen.geolifeLike(n, len, seed), EvalConfig.geolife)
        else (TrajGen.portoLike(n, len, seed), EvalConfig.porto)
      val p = cfg.params(mode, useCqc)
      val enc = new PpqEncoder(p)
      val codes = (1 to data.len).flatMap(t => enc.step(t, data.pointsAt(t)))
      val decoded = PpqDecoder.reconstruct(p, enc.codebook.codewords, enc.steps.toSeq, codes)
      val cqcBound = p.gs.map(math.sqrt(2.0) / 2.0 * _)
      decoded.size == codes.size && codes.forall { cp =>
        val raw = data.point(cp.trajId, cp.t)
        cp.recon.dist(raw) <= p.eps1 + 1e-12 &&
          cqcBound.forall(b => cp.refined.dist(raw) <= b + 1e-12) &&
          decoded((cp.trajId, cp.t)) == cp.refined
      }
    })
    assert(r.passed, Pretty.pretty(r))
  }
}
