package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{TrajDataset, TrajGen}
import repro.baselines.{TrajStoreIndex, TrajStoreQuant}
import repro.eval.{EvalConfig, MethodRun, Methods, PerTimestep, Table2, Table3, Table4, Table9}
import repro.index.{Pi, TpiIndex}

/** Pins the encoder's exact output for fixed seeds. Any change to
  * partitioning, prediction, quantization or CQC that alters a single bit
  * of a code, codeword, coefficient or assignment changes these hashes, so
  * a refactor or speed-up that claims "same behaviour" is held to it. */
class GoldenHashSpec extends AnyFunSuite {

  /** SHA-256 over a stream of longs and doubles (doubles by their bits). */
  private final class Fingerprint {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(8)
    def long(v: Long): Unit = { buf.clear(); buf.putLong(v); md.update(buf.array()) }
    def double(v: Double): Unit = long(java.lang.Double.doubleToRawLongBits(v))
    def pt(p: Pt): Unit = { double(p.x); double(p.y) }
    def hex: String = md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def encode(data: TrajDataset, params: PpqParams): String = {
    val f = new Fingerprint
    encodeInto(f, data, params)
    f.hex
  }

  /** Feeds every step's codes, the codebook, the summary size and the
    * per-step coefficients and assignments to `f`; returns the codes by t. */
  private def encodeInto(f: Fingerprint, data: TrajDataset, params: PpqParams): Map[Int, Array[CodedPoint]] = {
    val enc = new PpqEncoder(params)
    val codesAt = (1 to data.len).map(t => t -> enc.step(t, data.pointsAt(t))).toMap
    for (t <- 1 to data.len; cp <- codesAt(t)) {
      f.long(cp.trajId); f.long(cp.t); f.long(cp.part); f.long(cp.b)
      f.long(cp.cqcBits); f.long(cp.cqcLen); f.pt(cp.recon); f.pt(cp.refined)
    }
    enc.codebook.codewords.foreach(f.pt)
    f.long(enc.summaryBits)
    for (s <- enc.steps) {
      f.long(s.t); f.long(s.parts.length)
      // each step's point→partition pairs, sorted, as the summary once stored them
      for ((id, part) <- codesAt(s.t).map(cp => (cp.trajId, cp.part)).sorted) { f.long(id); f.long(part) }
      for ((part, cs) <- s.parts.zip(s.coeffs)) { f.long(part); cs.foreach(f.double) }
    }
    codesAt
  }

  /** `encode` under `Autocorr`, then the partitioner's counters after each
    * step: an `IncrementalPartitioner` fed the AR features the encoder's
    * frontend partitions on must give the codes' partitions, and its
    * `splits`, `merges` and `cappedSplits` are hashed. */
  private def encodeWithCounters(data: TrajDataset, params: PpqParams): String = {
    require(params.mode == PartitionMode.Autocorr)
    val f = new Fingerprint
    val codesAt = encodeInto(f, data, params)
    val ip = new IncrementalPartitioner(params.epsP, params.seed)
    val ids = Array.range(0, data.numTrajs)
    val xs = data.trajs.map(_.map(_.x)); val ys = data.trajs.map(_.map(_.y))
    val eq = new Predictor.NormalEquations(params.k)
    for (t <- 1 to data.len) {
      val feats = ids.map(i => Predictor.arFeatures(eq, xs(i), ys(i), 0, t - 1, PredictiveFrontend.ArWindow))
      val parts = ip.update(ids, feats)
      assert(parts.sameElements(codesAt(t).map(_.part)), s"t=$t")
      f.long(ip.splits); f.long(ip.merges); f.long(ip.cappedSplits)
    }
    f.hex
  }

  /** A Table 2/4 pipeline's output: reconstructions in (id, t) order, then
    * the per-timestamp codeword counts sorted by t. */
  private def methodRun(run: MethodRun): String = {
    val f = new Fingerprint
    val r = run.recon
    for (id <- 0 until r.numTrajs; t <- 1 to r.len) { f.long(id); f.long(t); f.pt(r.point(id, t)) }
    for ((t, v) <- run.vPerT.toSeq.sorted) { f.long(t); f.long(v) }
    f.hex
  }

  private val porto = EvalConfig.porto
  private val geolife = EvalConfig.geolife

  /** `PerTimestep.runPpq` for the PPQ row named `method` under `policy`. */
  private def ppqRun(method: String, data: => TrajDataset, policy: CodebookPolicy, cfg: EvalConfig): () => String =
    () => methodRun(PerTimestep.runPpq(Methods.ppq.find(_.name == method).get, data, policy, cfg))

  private def bounded(method: String, data: => TrajDataset, cfg: EvalConfig): () => String =
    ppqRun(method, data, CodebookPolicy.PerStep, cfg)

  private def fixed(method: String, data: => TrajDataset, v: Int, cfg: EvalConfig): () => String =
    ppqRun(method, data, CodebookPolicy.KMeansPerStep(v), cfg)

  /** A TrajStore quadtree over a Porto-like stream with a small leaf cap,
    * plus points on the bbox's upper edges, which no child rect contains. */
  private def trajStore(maxPerLeaf: Int): (TrajDataset, TrajStoreIndex, Seq[Pt]) = {
    val data = TrajGen.portoLike(60, 20, 12)
    val b = data.bbox
    val ts = new TrajStoreIndex(b, maxPerLeaf)
    val edge = Seq(Pt(b.x1, (b.y0 + b.y1) / 2), Pt((b.x0 + b.x1) / 2, b.y1), Pt(b.x1, b.y1))
    for (t <- 1 to data.len) {
      for ((id, p) <- data.pointsAt(t)) ts.insert(id, t, p)
      if (t % 5 == 0) for ((p, j) <- edge.zipWithIndex) ts.insert(1000 + j, t, p)
    }
    (data, ts, edge)
  }

  /** Leaf rects and point lists in `leaves` order, then `splitOps`, then
    * the leaf and the ids `query` finds for each probe. */
  private def trajStoreHash(ts: TrajStoreIndex, probes: Seq[(Pt, Int)]): String = {
    val f = new Fingerprint
    for (leaf <- ts.leaves) {
      val r = leaf.rect
      f.double(r.x0); f.double(r.y0); f.double(r.x1); f.double(r.y1); f.long(leaf.pts.length)
      for ((id, t, p) <- leaf.pts) { f.long(id); f.long(t); f.pt(p) }
    }
    f.long(ts.splitOps)
    for ((p, t) <- probes) {
      val r = ts.leafOf(p).rect
      f.double(r.x0); f.double(r.y0); f.double(r.x1); f.double(r.y1)
      ts.query(p, t).foreach(id => f.long(id))
    }
    f.hex
  }

  /** TPI over a stream at §6.5's ε_c = 0.5 and ε_d = 0.8: each period's
    * span, region rectangles and base densities, ids posted per region and
    * size; the counters and the total size; then `query` and
    * `queryWithNeighbors` for every point at its own t. */
  private def tpiHash(data: TrajDataset, cfg: EvalConfig): String = {
    val tpi = new TpiIndex(cfg.epsS, cfg.gcDeg, epsC = 0.5, epsD = 0.8)
    for (t <- 1 to data.len) tpi.step(t, data.pointsAt(t))
    val f = new Fingerprint
    for (period <- tpi.periods) {
      val pi = period.pi
      f.long(period.start); f.long(period.end)
      for ((region, density) <- pi.regions.zip(pi.baseDensity)) {
        val r = region.rect
        f.double(r.x0); f.double(r.y0); f.double(r.x1); f.double(r.y1); f.double(density)
      }
      pi.postedByRegion.foreach(c => f.long(c))
      f.long(pi.sizeBits)
    }
    f.long(tpi.rebuilds); f.long(tpi.insertions); f.long(tpi.sizeBits)
    for (t <- 1 to data.len; (_, p) <- data.pointsAt(t); ids <- Seq(tpi.query(p, t), tpi.queryWithNeighbors(p, t))) {
      f.long(ids.length); ids.foreach(id => f.long(id))
    }
    f.hex
  }

  private def portoSmall = TrajGen.portoLike(200, 20, 11)
  private def geolifeSmall = TrajGen.geolifeLike(100, 30, 44)

  /** Every double of Tables 2, 3 and 4 (5 and 6 bits), row by row, on each
    * small dataset: the cells are sums over reconstructions, so a change of
    * summation order or of a single reconstructed bit shows here. */
  private def tables(): String = {
    val f = new Fingerprint
    for ((data, cfg) <- Seq(portoSmall -> porto, geolifeSmall -> geolife)) {
      val runs = PerTimestep.allBudgetMatched(data, cfg)
      for (r <- Table2.evaluate(runs, data, cfg, nQueries = 100)) {
        f.double(r.maeM); f.double(r.precision); f.double(r.recall)
      }
      for (r <- Table3.evaluate(runs, data); (_, mae) <- r.maeByL) f.double(mae)
      for (r <- Table4.run(data, cfg, bitsRange = Seq(5, 6), nQueries = 50); (_, c) <- r.byBits) {
        f.double(c.ratio); f.double(c.maeM)
      }
    }
    f.hex
  }

  private val cases: Seq[(String, () => String, String)] = Seq(
    ("PPQ-A porto 400x30 seed 5",
      () => encode(TrajGen.portoLike(400, 30, 5), porto.params(PartitionMode.Autocorr, useCqc = true)),
      "8dad15ba5faa180e"),
    ("PPQ-A porto 1600x8 seed 1010",
      () => encode(TrajGen.portoLike(1600, 8, 1010), porto.params(PartitionMode.Autocorr, useCqc = true)),
      "1493561dc8126a6b"),
    // t = 5 re-partitions 1,600 trajectories, stops at the round cap and
    // merges densely; the counters pin the split and merge steps.
    ("PPQ-A porto 1600x8 seed 1010 with splits, merges and capped splits",
      () => encodeWithCounters(TrajGen.portoLike(1600, 8, 1010), porto.params(PartitionMode.Autocorr, useCqc = true)),
      "530de74d78a9e03d"),
    ("PPQ-A-basic geolife 150x40 seed 43",
      () => encode(TrajGen.geolifeLike(150, 40, 43), geolife.params(PartitionMode.Autocorr, useCqc = false)),
      "3f392af35df73137"),
    ("PPQ-S porto 400x30 seed 6",
      () => encode(TrajGen.portoLike(400, 30, 6), porto.params(PartitionMode.Spatial, useCqc = true)),
      "b21fcccfe5c17214"),
    ("PPQ-S geolife 300x40 seed 43",
      () => encode(TrajGen.geolifeLike(300, 40, 43), geolife.params(PartitionMode.Spatial, useCqc = true)),
      "83cc8bad2f46ad9f"),
    // The GeoLife-like stream of the benchmark: its codebook grows to 3,987 words.
    ("PPQ-S geolife 1200x260 seed 43",
      () => encode(TrajGen.geolifeLike(1200, 260, 43), geolife.params(PartitionMode.Spatial, useCqc = true)),
      "30ce39e7540588aa"),
    ("E-PQ porto 200x30 seed 7",
      () => encode(TrajGen.portoLike(200, 30, 7), porto.params(PartitionMode.Single, useCqc = true)),
      "466ad7d7a82d18b6"),
    ("Pi.buildRegions porto 800 points t=10",
      () => {
        val f = new Fingerprint
        val pts = TrajGen.portoLike(800, 10, 8).pointsAt(10)
        val pi = Pi.build(0, pts, 0.02, porto.gcDeg, seed = 23)
        for ((region, density) <- pi.regions.zip(pi.baseDensity)) {
          val r = region.rect
          f.double(r.x0); f.double(r.y0); f.double(r.x1); f.double(r.y1); f.double(density)
        }
        f.hex
      },
      "544de808b1ec1bcf"),
    // The benchmark's GeoLife-like stream through TPI: 23 periods, 22
    // re-builds and 237 insertions.
    ("TpiIndex geolife 1200x260 seed 43", () => tpiHash(TrajGen.geolifeLike(1200, 260, 43), geolife), "58645cede0ed9ee0"),
    ("runPpqBounded PPQ-A porto 200x20 seed 11", bounded("PPQ-A", portoSmall, porto), "2641d89ae06d08df"),
    ("runPpqBounded PPQ-A-basic porto 200x20 seed 11", bounded("PPQ-A-basic", portoSmall, porto), "fd77da644e1aaa9d"),
    ("runPpqBounded PPQ-S porto 200x20 seed 11", bounded("PPQ-S", portoSmall, porto), "81b0eda2e282e378"),
    ("runPpqBounded PPQ-S-basic porto 200x20 seed 11", bounded("PPQ-S-basic", portoSmall, porto), "d5b21dc45ad2e771"),
    ("runPpqBounded E-PQ porto 200x20 seed 11", bounded("E-PQ", portoSmall, porto), "498aa3ca3204070d"),
    ("runPpqBounded PPQ-A geolife 100x30 seed 44", bounded("PPQ-A", geolifeSmall, geolife), "b1a9435dfc8feaa6"),
    ("runPpqBounded PPQ-A-basic geolife 100x30 seed 44", bounded("PPQ-A-basic", geolifeSmall, geolife), "26ea2b7d07df9a73"),
    ("runPpqBounded PPQ-S geolife 100x30 seed 44", bounded("PPQ-S", geolifeSmall, geolife), "ccc7babd124c3892"),
    ("runPpqBounded PPQ-S-basic geolife 100x30 seed 44", bounded("PPQ-S-basic", geolifeSmall, geolife), "5b361b7813381ff0"),
    ("runPpqBounded E-PQ geolife 100x30 seed 44", bounded("E-PQ", geolifeSmall, geolife), "3a74963bac423b8a"),
    ("runPpqFixed v=64 PPQ-A porto 200x20 seed 11", fixed("PPQ-A", portoSmall, 64, porto), "616c2762f63b651e"),
    ("runPpqFixed v=64 PPQ-A-basic porto 200x20 seed 11", fixed("PPQ-A-basic", portoSmall, 64, porto), "8f2d50cd2c93ef9b"),
    ("runPpqFixed v=64 PPQ-S porto 200x20 seed 11", fixed("PPQ-S", portoSmall, 64, porto), "3dbf66b9d2bcc3aa"),
    ("runPpqFixed v=64 PPQ-S-basic porto 200x20 seed 11", fixed("PPQ-S-basic", portoSmall, 64, porto), "2280255a5cd650f9"),
    ("runPpqFixed v=64 E-PQ porto 200x20 seed 11", fixed("E-PQ", portoSmall, 64, porto), "925a7dc051e58ac3"),
    ("runPpqFixed v=64 PPQ-A geolife 100x30 seed 44", fixed("PPQ-A", geolifeSmall, 64, geolife), "a7776f00ebfd674d"),
    ("runPpqFixed v=64 PPQ-A-basic geolife 100x30 seed 44", fixed("PPQ-A-basic", geolifeSmall, 64, geolife), "bea94cfe370516c3"),
    ("runPpqFixed v=64 PPQ-S geolife 100x30 seed 44", fixed("PPQ-S", geolifeSmall, 64, geolife), "22d549dad1d2b950"),
    ("runPpqFixed v=64 PPQ-S-basic geolife 100x30 seed 44", fixed("PPQ-S-basic", geolifeSmall, 64, geolife), "7f0d8829b3fa6c8c"),
    ("runPpqFixed v=64 E-PQ geolife 100x30 seed 44", fixed("E-PQ", geolifeSmall, 64, geolife), "4c2a1d320497350f"),
    ("TrajStoreIndex porto 60x20 seed 12 leaf 16 with upper-edge points",
      () => {
        val (data, ts, edge) = trajStore(16)
        trajStoreHash(ts, data.pointsAt(10).map { case (_, p) => (p, 10) }.toSeq ++ edge.map(p => (p, 10)))
      },
      "dd0ec43d43a04580"),
    ("TrajStoreQuant.summarizeBounded porto 60x20 seed 12 leaf 16 at 200 m",
      () => {
        val (_, ts, _) = trajStore(16)
        val (recon, words) = TrajStoreQuant.summarizeBounded(ts, Geo.toDegrees(200.0))
        val f = new Fingerprint
        for (((id, t), p) <- recon.toSeq.sortBy(_._1)) { f.long(id); f.long(t); f.pt(p) }
        f.long(words)
        f.hex
      },
      "a772977fc41b2eea"),
    ("runTrajStore porto 200x20 seed 11",
      () => methodRun(PerTimestep.runTrajStore("TrajStore", portoSmall, t => 8 + t % 5, porto)), "61938cc8976e2b4d"),
    ("runTrajStore geolife 100x30 seed 44",
      () => methodRun(PerTimestep.runTrajStore("TrajStore", geolifeSmall, t => 8 + t % 5, geolife)), "155a186a60fbb88b"),
    ("Table9.run sizes and I/Os porto 60x20 seed 14",
      () => {
        val f = new Fingerprint
        for (r <- Table9.run(TrajGen.portoLike(60, 20, 14), porto, nQueries = 300)) {
          r.method.foreach(c => f.long(c)); f.double(r.sizeMB); f.long(r.ios)
        }
        f.hex
      },
      "94ebb21db970b169"),
    ("Tables 2, 3 and 4 (5, 6 bits) porto 200x20 seed 11 and geolife 100x30 seed 44", () => tables(),
      "46005b99dc227ba5"))

  for ((name, run, expected) <- cases)
    test(s"golden hash: $name") {
      val got = run()
      assert(got == expected, s"$name hashed to $got")
    }
}
