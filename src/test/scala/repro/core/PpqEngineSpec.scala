package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.QTrajectory
import repro.data.{TrajDataset, TrajGen}

class PpqEngineSpec extends AnyFunSuite {

  private def smallData = TrajGen.portoLike(n = 40, len = 30, seed = 5)

  private def runEncoder(params: PpqParams) = {
    val data = smallData
    val enc = new PpqEncoder(params)
    val codes = (1 to data.len).flatMap(t => enc.step(t, data.pointsAt(t)))
    (data, enc, codes)
  }

  val allModes: Seq[(String, PpqParams)] = Seq(
    "PPQ-A" -> PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05),
    "PPQ-A-basic" -> PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05, gs = None),
    "PPQ-S" -> PpqParams(mode = PartitionMode.Spatial, epsP = 0.05),
    "PPQ-S-basic" -> PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None),
    "E-PQ" -> PpqParams(mode = PartitionMode.Single, gs = None))

  // Def. 3.2: codebook reconstruction within eps1 of the raw point, always.
  for ((name, params) <- allModes)
    test(s"$name: codebook reconstruction error <= eps1 for every point") {
      val (data, _, codes) = runEncoder(params)
      for (cp <- codes) {
        val raw = data.point(cp.trajId, cp.t)
        assert(cp.recon.dist(raw) <= params.eps1 + 1e-12,
          s"t=${cp.t} err=${Geo.toMeters(cp.recon.dist(raw))}m")
      }
    }

  // Lemma 3: with CQC the refined error is bounded by (sqrt2/2)*gs.
  for ((name, params) <- allModes.filter(_._2.gs.isDefined))
    test(s"$name: refined (CQC) error <= (sqrt2/2)*gs") {
      val (data, _, codes) = runEncoder(params)
      val bound = math.sqrt(2.0) / 2.0 * params.gs.get + 1e-12
      for (cp <- codes) {
        val raw = data.point(cp.trajId, cp.t)
        assert(cp.refined.dist(raw) <= bound)
      }
    }

  for ((name, params) <- allModes)
    test(s"$name: decoder reproduces the encoder's reconstruction exactly") {
      val (_, enc, codes) = runEncoder(params)
      val decoded = PpqDecoder.reconstruct(params, enc.codebook.codewords, enc.steps.toSeq, codes)
      assert(decoded.size == codes.size)
      for (cp <- codes) {
        val d = decoded((cp.trajId, cp.t))
        assert(d == cp.refined, s"decoded $d != encoded ${cp.refined} at (${cp.trajId},${cp.t})")
      }
    }

  private def decodeWith(enc: PpqEncoder, steps: Seq[StepSummary], codes: Seq[CodedPoint]) =
    PpqDecoder.reconstruct(enc.params, enc.codebook.codewords, steps, codes)

  test("decoder drops the codes of a t with no step summary, as the reference does") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05))
    val steps = enc.steps.toSeq.filter(_.t != 10)
    val decoded = decodeWith(enc, steps, codes)
    assert(decoded.size == codes.size - data.numTrajs && decoded.keysIterator.forall(_._2 != 10))
    assert(decoded == ReferenceDecoder.reconstruct(enc.params, enc.codebook.codewords, steps, codes))
  }

  test("decoder rejects a code whose partition has no coefficients at its t, naming (trajId, t)") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05))
    val i = codes.indexWhere(cp => cp.t == 7 && cp.trajId == 3)
    val bad = codes.updated(i, codes(i).copy(part = Int.MaxValue))
    val e = intercept[IllegalArgumentException](decodeWith(enc, enc.steps.toSeq, bad))
    assert(e.getMessage.contains("(3, 7)"), e.getMessage)
  }

  test("decoder rejects a codeword index outside the codebook, naming (trajId, t)") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05))
    val i = codes.indexWhere(cp => cp.t == 12 && cp.trajId == 5)
    for (b <- Seq(-1, enc.codebook.size, Int.MaxValue)) {
      val e = intercept[IllegalArgumentException](decodeWith(enc, enc.steps.toSeq, codes.updated(i, codes(i).copy(b = b))))
      assert(e.getMessage.contains("(5, 12)") && e.getMessage.contains(s"codeword $b"), e.getMessage)
    }
  }

  test("decoder rejects two codes for one (trajId, t), in any position") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05))
    val i = codes.indexWhere(cp => cp.t == 20 && cp.trajId == 8)
    for (twice <- Seq(codes :+ codes(i), codes(i) +: codes, codes.patch(i, Seq(codes(i), codes(i)), 1))) {
      val e = intercept[IllegalArgumentException](decodeWith(enc, enc.steps.toSeq, twice))
      assert(e.getMessage.contains("two codes for (8, 20)"), e.getMessage)
    }
  }

  test("decoder rejects two step summaries for one t") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Single, gs = None))
    val e = intercept[IllegalArgumentException](decodeWith(enc, enc.steps.toSeq :+ enc.steps(4), codes))
    assert(e.getMessage.contains("t=5"), e.getMessage)
  }

  /** The decoder's error on enc's summary with the step at t replaced by `bad` of it. */
  private def badStep(enc: PpqEncoder, codes: Seq[CodedPoint], t: Int)(bad: StepSummary => StepSummary) =
    intercept[IllegalArgumentException](decodeWith(enc, enc.steps.toSeq.map(s => if (s.t == t) bad(s) else s), codes))

  test("decoder rejects a step summary whose partitions are not strictly increasing, naming t") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05))
    val t = enc.steps.find(_.parts.length >= 2).get.t
    for (bad <- Seq((s: StepSummary) => s.copy(parts = s.parts.reverse, coeffs = s.coeffs.reverse),
                    (s: StepSummary) => s.copy(parts = s.parts.updated(1, s.parts(0))))) {
      val e = badStep(enc, codes, t)(bad)
      assert(e.getMessage.contains(s"t=$t ") && e.getMessage.contains("strictly increasing"), e.getMessage)
    }
  }

  test("decoder rejects a step summary whose coefficient count differs from its partitions', naming t") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05))
    for (bad <- Seq((s: StepSummary) => s.copy(coeffs = s.coeffs.init),
                    (s: StepSummary) => s.copy(coeffs = s.coeffs :+ s.coeffs(0)))) {
      val e = badStep(enc, codes, 7)(bad)
      assert(e.getMessage.contains("t=7 ") && e.getMessage.contains("coefficient vectors"), e.getMessage)
    }
  }

  // Before this check a longer P read before the history window and a
  // shorter one decoded most of the points wrong without an error.
  test("decoder rejects a coefficient vector longer or shorter than k, naming t") {
    val (_, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Single, gs = None))
    for (bad <- Seq((c: Array[Double]) => c :+ 0.0, (c: Array[Double]) => c.init)) {
      val e = badStep(enc, codes, 6)(s => s.copy(coeffs = s.coeffs.updated(0, bad(s.coeffs(0)))))
      assert(e.getMessage.contains("t=6 ") && e.getMessage.contains(s"not k = ${enc.params.k}"), e.getMessage)
    }
  }

  test("the decoded view answers get, contains and iterator; updates copy it into a plain Map") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05))
    val decoded = decodeWith(enc, enc.steps.toSeq, codes)
    assert(decoded.knownSize == codes.size && decoded.iterator.size == codes.size)
    assert(decoded.keySet == codes.map(cp => (cp.trajId, cp.t)).toSet)
    for ((id, t) <- Seq((-1, 1), (data.numTrajs, 1), (0, 0), (0, data.len + 1), (Int.MinValue, Int.MaxValue))) {
      assert(decoded.get((id, t)).isEmpty && !decoded.contains((id, t)), s"($id, $t)")
    }
    val key = (2, 9)
    val moved = decoded.updated(key, Pt(1.0, 2.0))
    assert(moved.getClass != decoded.getClass && moved(key) == Pt(1.0, 2.0) && moved.size == decoded.size)
    assert(decoded(key) == codes.find(cp => (cp.trajId, cp.t) == key).get.refined)
    val less = decoded.removed(key)
    assert(less.size == decoded.size - 1 && !less.contains(key) && decoded.contains(key))
    assert(decodeWith(enc, enc.steps.toSeq, Seq.empty).isEmpty)
  }

  // Q-trajectory quantizes the raw points in the encoder's (t, id) order:
  // E-PQ's codebook over the same points with the prediction left out.
  test("prediction shrinks the codebook vs no prediction (the paper's core claim)") {
    val (data, encPred, _) = runEncoder(PpqParams(mode = PartitionMode.Single, gs = None))
    val raw = new QTrajectory.Bounded(encPred.params.eps1)
    for (t <- 1 to data.len; (_, p) <- data.pointsAt(t)) raw.quantize(p)
    assert(encPred.codebook.size < raw.codewords,
      s"E-PQ ${encPred.codebook.size} vs Q-trajectory ${raw.codewords}")
  }

  test("partitioned prediction (PPQ) does not exceed E-PQ codebook size by much") {
    val (_, encPpq, _) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None))
    val (_, encEpq, _) = runEncoder(PpqParams(mode = PartitionMode.Single, gs = None))
    // partitioning narrows the error range; codebook should not blow up
    assert(encPpq.codebook.size <= encEpq.codebook.size * 2)
  }

  test("compression ratio is > 1 and summary bits are consistent") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05))
    assert(enc.nPoints == data.numPoints)
    assert(enc.summaryBits > 0)
    val ratio = enc.nPoints * 128.0 / enc.summaryBits // raw bits over summary bits
    assert(ratio > 1.0, s"ratio=$ratio")
    assert(enc.cqcBitsTotal == codes.map(_.cqcLen.toLong).sum)
  }

  test("steps record one summary per timestamp with coefficients for every used partition") {
    val (data, enc, codes) = runEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05))
    assert(enc.steps.map(_.t).toSeq == (1 to data.len))
    for (cp <- codes) assert(enc.steps(cp.t - 1).parts.contains(cp.part))
    val partsAt = codes.groupBy(_.t).map { case (t, cs) => t -> cs.map(_.part).distinct.size }
    for (s <- enc.steps) assert(s.parts.length == partsAt(s.t) && s.coeffs.length == partsAt(s.t), s"t=${s.t}")
  }

  test("t <= k points are quantized with zero prediction (Alg. 1)") {
    val params = PpqParams(mode = PartitionMode.Single, gs = None)
    val data = smallData
    val enc = new PpqEncoder(params)
    val codes1 = enc.step(1, data.pointsAt(1))
    // with zero prediction the codeword IS (approximately) the raw point
    for (cp <- codes1) {
      val raw = data.point(cp.trajId, 1)
      assert(enc.codebook(cp.b).dist(raw) <= params.eps1 + 1e-12)
    }
  }

  test("deterministic: two identical runs produce identical codebooks and codes") {
    val params = PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05)
    val (_, e1, c1) = runEncoder(params)
    val (_, e2, c2) = runEncoder(params)
    assert(e1.codebook.codewords == e2.codebook.codewords)
    assert(c1 == c2)
  }

  test("autocorr mode produces more than one partition on heterogeneous motion") {
    val data = TrajGen.geolifeLike(n = 30, len = 40, seed = 11)
    val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.01, gs = None))
    for (t <- 1 to data.len) enc.step(t, data.pointsAt(t))
    assert(enc.steps.map(_.parts.length).max > 1)
  }

  test("spatial mode tracks moving partitions without unbounded growth") {
    val data = smallData
    val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None))
    for (t <- 1 to data.len) enc.step(t, data.pointsAt(t))
    assert(enc.numPartitions <= data.numTrajs)
    assert(enc.steps.last.parts.length >= 1)
  }

  /** `data`'s points at t, with trajectory 1's point replaced by `bad`. */
  private def withBadPoint(data: TrajDataset, t: Int, bad: Pt => Pt): Array[(Int, Pt)] =
    data.pointsAt(t).map { case (id, p) => if (id == 1) (id, bad(p)) else (id, p) }

  for (mode <- Seq(PartitionMode.Single, PartitionMode.Spatial, PartitionMode.Autocorr))
    test(s"$mode: a non-finite point is rejected by id and t, and leaves the encoder untouched") {
      val data = smallData
      val params = PpqParams(mode = mode, epsP = 0.05)
      val enc = new PpqEncoder(params)
      val nan = intercept[IllegalArgumentException](enc.step(1, withBadPoint(data, 1, p => Pt(Double.NaN, p.y))))
      assert(nan.getMessage.contains("trajectory 1 at t=1"), nan.getMessage)
      assert(enc.nPoints == 0 && enc.steps.isEmpty && enc.codebook.size == 0)
      val codes = (1 to 2).flatMap(t => enc.step(t, data.pointsAt(t)))
      val inf = intercept[IllegalArgumentException](
        enc.step(3, withBadPoint(data, 3, p => Pt(p.x, Double.PositiveInfinity))))
      assert(inf.getMessage.contains("trajectory 1 at t=3"), inf.getMessage)
      val after = (3 to data.len).flatMap(t => enc.step(t, data.pointsAt(t)))
      val fresh = new PpqEncoder(params)
      assert(codes ++ after == (1 to data.len).flatMap(t => fresh.step(t, data.pointsAt(t))))
      assert(enc.codebook.codewords == fresh.codebook.codewords)
    }

  test("a repeated timestamp is rejected and leaves the encoder untouched") {
    val data = smallData
    val params = PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05)
    val enc = new PpqEncoder(params)
    val codes = (1 to 2).flatMap(t => enc.step(t, data.pointsAt(t)))
    val e = intercept[IllegalArgumentException](enc.step(2, data.pointsAt(2)))
    assert(e.getMessage.contains("t=2") && e.getMessage.contains("previous step's t=2"), e.getMessage)
    intercept[IllegalArgumentException](enc.step(1, data.pointsAt(1)))
    val after = (3 to data.len).flatMap(t => enc.step(t, data.pointsAt(t)))
    val fresh = new PpqEncoder(params)
    assert(codes ++ after == (1 to data.len).flatMap(t => fresh.step(t, data.pointsAt(t))))
    assert(enc.codebook.codewords == fresh.codebook.codewords)
    assert(enc.steps.map(_.t) == fresh.steps.map(_.t))
  }

  test("PerStep policy: a fresh codebook at every timestamp, bounded by eps1") {
    val data = smallData
    val params = PpqParams(mode = PartitionMode.Spatial, epsP = 0.05, gs = None)
    val enc = new PpqEncoder(params, CodebookPolicy.PerStep)
    for (t <- 1 to data.len) {
      val codes = enc.step(t, data.pointsAt(t))
      assert(codes.map(_.b).toSet == (0 until enc.codebook.size).toSet)
      for (cp <- codes) assert(cp.recon.dist(data.point(cp.trajId, t)) <= params.eps1 + 1e-12)
    }
  }

  test("KMeansPerStep policy: at most v codewords per timestamp") {
    val data = smallData
    val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05), CodebookPolicy.KMeansPerStep(8))
    for (t <- 1 to data.len) assert(enc.step(t, data.pointsAt(t)).map(_.b).forall(b => b >= 0 && b < 8))
    intercept[UnsupportedOperationException](enc.codebook)
  }

  test("the per-step codebook policies record no decoder steps") {
    val data = smallData
    for (policy <- Seq(CodebookPolicy.PerStep, CodebookPolicy.KMeansPerStep(8))) {
      val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Autocorr, epsP = 0.05), policy)
      for (t <- 1 to data.len) enc.step(t, data.pointsAt(t))
      assert(enc.nPoints == data.numPoints && enc.steps.isEmpty, s"$policy")
    }
  }

  test("summaryBits is refused under the per-step codebook policies") {
    val data = smallData
    for (policy <- Seq(CodebookPolicy.PerStep, CodebookPolicy.KMeansPerStep(8))) {
      val enc = new PpqEncoder(PpqParams(mode = PartitionMode.Single), policy)
      enc.step(1, data.pointsAt(1))
      intercept[UnsupportedOperationException](enc.summaryBits)
    }
  }

  test("PpqParams rejects an ε₁ / g_s ratio that overflows the 4096-cell quadtree") {
    val e = intercept[IllegalArgumentException](PpqParams(eps1 = 1.0, gs = Some(1e-4)))
    assert(e.getMessage.contains("ε₁ = 1.0") && e.getMessage.contains("g_s = 1.0E-4") &&
      e.getMessage.contains("4096"), e.getMessage)
    // 2·ε₁ / g_s = 4096 is the largest grid that fits, 4098 does not
    val gs = 1.0 / 1024
    assert(Cqc.sideFor(2.0, gs) == 4096 && PpqParams(eps1 = 2.0, gs = Some(gs)).eps1 == 2.0)
    val over = intercept[IllegalArgumentException](PpqParams(eps1 = 2.0 + gs, gs = Some(gs)))
    assert(over.getMessage.contains("side 4098"), over.getMessage)
  }

  test("PpqParams rejects g_s = 0 and a negative g_s") {
    for (g <- Seq(0.0, -0.0, -1e-4)) {
      val e = intercept[IllegalArgumentException](PpqParams(gs = Some(g)))
      assert(e.getMessage.contains("g_s"), e.getMessage)
    }
  }

  test("PpqParams rejects a non-finite g_s") {
    for (g <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](PpqParams(gs = Some(g)))
      assert(e.getMessage.contains("g_s"), e.getMessage)
    }
  }

  test("PpqParams rejects a non-positive or non-finite ε₁, with or without CQC") {
    for (eps <- Seq(0.0, -0.001, Double.NaN, Double.PositiveInfinity); gs <- Seq(None, Some(1e-4))) {
      val e = intercept[IllegalArgumentException](PpqParams(eps1 = eps, gs = gs))
      assert(e.getMessage.contains("ε₁"), e.getMessage)
    }
  }

  test("PpqParams rejects k < 1") {
    for (k <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](PpqParams(k = k))
      assert(e.getMessage.contains("k must be at least 1"), e.getMessage)
    }
    assert(PpqParams(k = 1).k == 1)
  }

  test("PpqParams rejects a NaN or negative ε_p and accepts 0 and +∞") {
    for (e <- Seq(Double.NaN, -0.05, -1e-300, Double.NegativeInfinity)) {
      val ex = intercept[IllegalArgumentException](PpqParams(epsP = e))
      assert(ex.getMessage.contains("ε_p") && ex.getMessage.contains(e.toString), ex.getMessage)
    }
    for (e <- Seq(0.0, -0.0, 0.05, 0.5, Double.PositiveInfinity)) assert(PpqParams(epsP = e).epsP.equals(e))
  }
}
