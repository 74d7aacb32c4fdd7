package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{TrajDataset, TrajGen}
import repro.eval.EvalConfig
import repro.query.Queries
import scala.util.Random

/** The paper's per-point guarantees over generated Porto-like and
  * GeoLife-like datasets, in every partition mode, with CQC on and off:
  * the codebook reconstruction is within ε₁ of the raw point (Def. 3.2),
  * the CQC-refined one within (√2/2)·g_s (Lemma 3), and the decoder
  * reproduces every refined point from the summary alone (§5). The decoder
  * also equals the reference decoder entry for entry, and exact STRQ over
  * its output equals ground truth (§5.2). */
class PpqPropertySpec extends AnyFunSuite {

  private val cases = for {
    geolife <- Gen.oneOf(false, true)
    n <- Gen.choose(5, 60)
    len <- Gen.choose(3, 25)
    seed <- Gen.long
    mode <- Gen.oneOf(PartitionMode.Spatial, PartitionMode.Autocorr, PartitionMode.Single)
    useCqc <- Gen.oneOf(false, true)
  } yield (geolife, n, len, seed, mode, useCqc)

  private def check(p: Prop, tests: Int): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20201019L)
    val r = Test.check(params, p)
    assert(r.passed, Pretty.pretty(r))
  }

  private def generate(geolife: Boolean, n: Int, len: Int, seed: Long): (TrajDataset, EvalConfig) =
    if (geolife) (TrajGen.geolifeLike(n, len, seed), EvalConfig.geolife)
    else (TrajGen.portoLike(n, len, seed), EvalConfig.porto)

  /** Trajectory ids that are not 0 until n: negative ones, ones counting
    * down from `Int.MaxValue`, or random distinct ones that include both
    * ends of the `Int` range. */
  private def idsFor(n: Int, scheme: Int, rng: Random): Array[Int] = scheme match {
    case 0 => Array.tabulate(n)(i => -1 - 7 * i)
    case 1 => Array.tabulate(n)(i => Int.MaxValue - 3 * i)
    case _ =>
      val ids = scala.collection.mutable.LinkedHashSet(Int.MaxValue, Int.MinValue)
      while (ids.size < n) ids += rng.nextInt()
      rng.shuffle(ids.toVector).take(n).toArray
  }

  private def sameBits(a: Pt, b: Pt): Boolean =
    java.lang.Double.doubleToRawLongBits(a.x) == java.lang.Double.doubleToRawLongBits(b.x) &&
      java.lang.Double.doubleToRawLongBits(a.y) == java.lang.Double.doubleToRawLongBits(b.y)

  test("the flat decoder equals the reference decoder on shuffled codes and arbitrary ids") {
    val eqCases = for {
      c <- cases
      scheme <- Gen.choose(0, 2)
      shuffle <- Gen.long
      dropStep <- Gen.oneOf(false, true)
    } yield (c, scheme, shuffle, dropStep)
    check(Prop.forAllNoShrink(eqCases) { case ((geolife, n, len, seed, mode, useCqc), scheme, shuffle, dropStep) =>
      val (data, cfg) = generate(geolife, n, len, seed)
      val p = cfg.params(mode, useCqc)
      val rng = new Random(shuffle)
      val ids = idsFor(n, scheme, rng)
      val enc = new PpqEncoder(p)
      val codes = rng.shuffle((1 to data.len).flatMap(t => enc.step(t, data.pointsAt(t).map { case (i, q) => (ids(i), q) })))
      // Steps in any order; optionally one of them missing, so its codes are dropped.
      val steps = rng.shuffle(enc.steps.toSeq).drop(if (dropStep) 1 else 0)
      val words = enc.codebook.codewords
      val flat = PpqDecoder.reconstruct(p, words, steps, codes)
      val ref = ReferenceDecoder.reconstruct(p, words, steps, codes)
      flat.size == ref.size && flat.knownSize == ref.size && flat == ref &&
        ref.forall { case (k, v) => flat.get(k).exists(sameBits(_, v)) } &&
        flat.iterator.forall { case (k, v) => ref.get(k).exists(sameBits(_, v)) }
    }, tests = 200)
  }

  test("exact STRQ over the decoded summary equals ground truth") {
    val strqCases = for { c <- cases; qSeed <- Gen.long } yield (c, qSeed)
    check(Prop.forAllNoShrink(strqCases) { case ((geolife, n, len, seed, mode, useCqc), qSeed) =>
      val (data, cfg) = generate(geolife, n, len, seed)
      val p = cfg.params(mode, useCqc)
      val enc = new PpqEncoder(p)
      val codes = (1 to data.len).flatMap(t => enc.step(t, data.pointsAt(t)))
      val decoded = PpqDecoder.reconstruct(p, enc.codebook.codewords, enc.steps.toSeq, codes)
      // The deviation bound of a refined point: Lemma 3's with CQC, ε₁ without.
      val radius = if (useCqc) cfg.cqcRadiusDeg else p.eps1
      Queries.sampleQueries(data, 20, qSeed).forall { q =>
        val cands = Queries.localSearchCandidates(decoded, data, q, cfg.gcDeg, radius)
        Queries.refineWithRaw(cands, data, q, cfg.gcDeg) == Queries.groundTruth(data, q, cfg.gcDeg)
      }
    }, tests = 100)
  }

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
