package ppqbench

import repro.core.{CodedPoint, Pt}
import ppqbench.Repro.{Data, Query, Setting}
import scala.collection.mutable

/** The sequential workloads. Each has one client in a closed loop on one
  * thread; the inputs come from `TrajGen` with the run's seed. */
object Workloads {
  private val Slack = 1e-12 // rounding slack on the degree-space bounds
  /** `TrajGen.geolifeLike`'s own default seed. */
  private val StreamDataSeed = 43L
  /** `TrajGen.portoLike`'s own default seed. */
  private val WarmupPortoSeed = 42L

  // --- shared pieces --------------------------------------------------------

  def generate(c: Ctx, gen: => Data): Data = {
    val t0 = System.nanoTime()
    val d = c.tr.span("data.gen")(gen)
    c.genMs += (System.nanoTime() - t0) / 1e6
    d
  }

  /** Points breaking ‖e − C(b)‖ ≤ ε₁ or Lemma 3's (√2/2)·g_s bound. */
  def codeViolations(d: Data, s: Setting, codes: Array[CodedPoint], from: Int = 0, until: Int = -1): Long = {
    val end = if (until < 0) codes.length else until
    var bad = 0L
    var i = from
    while (i < end) {
      val cp = codes(i)
      val raw = d.point(cp.trajId, cp.t)
      if (Repro.dist(raw, cp.recon) > s.eps1 + Slack || Repro.dist(raw, cp.refined) > s.refinedBound + Slack) bad += 1
      i += 1
    }
    bad
  }

  /** Points whose decoded value differs from the encoder's refined point. */
  def decodeViolations(codes: Array[CodedPoint], out: collection.Map[(Int, Int), Pt]): Long =
    codes.count(cp => !out.get((cp.trajId, cp.t)).contains(cp.refined)) + math.abs(out.size - codes.length)

  def mismatches(a: Array[CodedPoint], b: Array[CodedPoint]): Long =
    if (a.length != b.length) math.max(a.length, b.length).toLong
    else a.indices.count(i => a(i) != b(i)).toLong

  def maeMeters(d: Data, codes: Array[CodedPoint]): Double =
    Repro.metersOf(codes.iterator.map(cp => Repro.dist(d.point(cp.trajId, cp.t), cp.refined)).sum / codes.length)

  /** Runs `iter` (which returns its time) at least `min` times, then until
    * two consecutive times agree within `tol`, at most `max` times. */
  def settle(c: Ctx, min: Int, max: Int, tol: Double)(iter: => Double): Unit = {
    val times = mutable.ArrayBuffer.empty[Double]
    def settled = times.length >= 2 && {
      val a = times(times.length - 1); val b = times(times.length - 2)
      math.abs(a - b) <= tol * math.min(a, b)
    }
    while (times.length < min || (!settled && times.length < max)) times += iter
    c.notes("warmup_iterations") = times.length
    c.notes("warmup_times") = times.map(x => math.rint(x * 1000) / 1000)
  }

  final class Codes(n: Int) {
    val arr = new Array[CodedPoint](n)
    var size = 0
    def ++=(cs: Array[CodedPoint]): Unit = { System.arraycopy(cs, 0, arr, size, cs.length); size += cs.length }
  }

  def encodeAll(d: Data, s: Setting): (Repro.Encoder, Array[CodedPoint]) = {
    val enc = new Repro.Encoder(s)
    val codes = new Codes(d.numPoints.toInt)
    var t = 1
    while (t <= d.len) { codes ++= enc.step(t, d.input(t)); t += 1 }
    (enc, codes.arr)
  }

  /** Keeps a workload's state reachable while the live heap is measured. */
  @volatile private var pinned: AnyRef = null
  def liveHeap(c: Ctx, state: AnyRef): Unit = {
    pinned = state
    c.endToEnd("live_heap_mb", c.jvm.liveHeapMb(), "MB", 1)
    pinned = null
  }

  // --- porto-build -------------------------------------------------------------

  /** PPQ-A over Porto-like data: each pass is a fresh encoder over every
    * timestamp followed by `PpqDecoder.reconstruct`. */
  def portoBuild(c: Ctx): Unit = {
    val (n, len, pool) = (1600, 50, 8)
    c.inputs ++= Seq("generator" -> "TrajGen.portoLike", "trajectories" -> n, "length" -> len, "seed" -> c.seed,
      "pool" -> pool, "pool_data_seed" -> "seed * 1009 + k, k = 1..pool", "warmup_data_seed" -> WarmupPortoSeed,
      "config" -> "EvalConfig.porto", "mode" -> "Autocorr", "cqc" -> true)
    // Timed passes cycle through a pool of seeded datasets: a pass's time
    // follows its input (one dataset ran 35-60% slower than another on every
    // run), so a run averages over many short passes and several inputs.
    // Warm-up always repeats the same dataset, so that the JIT compiles the
    // encoder from the same profile in every run.
    val (warm, data) = c.setup(5) {
      (generate(c, Repro.portoLike(n, len, WarmupPortoSeed)),
       Array.tabulate(pool)(k => generate(c, Repro.portoLike(n, len, c.seed * 1009 + k + 1))))
    }
    c.inputs("points_per_pass") = warm.numPoints
    val s = Repro.portoAutocorr
    val nPts = warm.numPoints.toDouble

    // Every pass over the same dataset must give the same codes.
    val reference = new java.util.IdentityHashMap[Data, Array[CodedPoint]]
    def buildPass(d: Data): (Repro.Encoder, Array[CodedPoint], Double) = {
      c.jvm.fullGc()
      var r: (Repro.Encoder, Array[CodedPoint]) = null
      val ns = c.jvm.window { r = encodeAll(d, s) }
      val ref = reference.putIfAbsent(d, r._2)
      val drift = if (ref == null) 0L else mismatches(ref, r._2)
      c.op("build pass", codeViolations(d, s, r._2) + drift)
      (r._1, r._2, ns)
    }
    def decodePass(enc: Repro.Encoder, codes: Array[CodedPoint]): (Map[(Int, Int), Pt], Double) = {
      val in = enc.decodeInput(codes)
      var out: Map[(Int, Int), Pt] = null
      val ns = c.jvm.window { out = c.tr.span("core.decoder.reconstruct")(Repro.decode(in)) }
      c.op("decode pass", decodeViolations(codes, out))
      (out, ns)
    }

    // Warm-up: whole passes with their checks, exactly as timed below, until
    // pass times settle.
    settle(c, min = 8, max = 12, tol = 0.1) {
      val (enc, codes, ns) = buildPass(warm)
      decodePass(enc, codes)
      ns / 1e9
    }

    val buildNs = mutable.ArrayBuffer.empty[Double]
    val decodeNs = mutable.ArrayBuffer.empty[Double]
    c.beginTimed()
    val end = c.deadline
    if (!c.traced) {
      var first: AnyRef = null
      var bits = 0L
      val maes = mutable.ArrayBuffer.empty[Double]
      while (buildNs.length < pool || System.nanoTime() < end) {
        val d = data(buildNs.length % pool)
        val (enc, codes, ns) = buildPass(d)
        buildNs += ns
        val (out, nsD) = decodePass(enc, codes)
        decodeNs += nsD
        // Summary size and error over the pool, so they repeat exactly.
        if (maes.length < pool) { bits += enc.summaryBits; maes += maeMeters(d, codes) }
        if (first == null) first = (enc, codes, out)
      }
      c.notes("build_ms") = buildNs.map(x => math.rint(x / 1e4) / 100)
      c.notes("decode_ms") = decodeNs.map(x => math.rint(x / 1e4) / 100)
      // Throughput over the whole pool: its points over the sum of each
      // dataset's mean pass time, so every dataset weighs the same however
      // many passes the run fitted in.
      def poolRate(ns: collection.Seq[Double]): Double = {
        val perData = ns.zipWithIndex.groupBy(_._2 % pool).values.map(g => g.map(_._1).sum / g.length)
        nPts * pool / (perData.sum / 1e9)
      }
      c.endToEnd("build_pts_per_s", poolRate(buildNs), "pts/s", buildNs.length)
      c.endToEnd("decode_pts_per_s", poolRate(decodeNs), "pts/s", decodeNs.length)
      c.endToEnd("summary_bytes_per_point", bits / 8.0 / (nPts * pool), "bytes", pool)
      c.endToEnd("mae_m", maes.sum / pool, "m", pool)
      liveHeap(c, (data, first))
    } else {
      // Traced: an untraced pass and a traced pass over each dataset. The
      // traced pass calls the encoder's pieces one by one; its codes must
      // equal the untraced `PpqEncoder.step` codes. Counts are from pass 1.
      val tracedNs = mutable.ArrayBuffer.empty[Double]
      val layerMs = mutable.HashMap.empty[String, mutable.ArrayBuffer[Double]]
      val coverage = mutable.ArrayBuffer.empty[Double]
      var first: Repro.SplitEncoder = null
      while (tracedNs.length < pool || System.nanoTime() < end) {
        val d = data(tracedNs.length % pool)
        val (enc, codes, ns) = buildPass(d)
        buildNs += ns
        c.jvm.fullGc()
        val from = c.tr.size
        val split = new Repro.SplitEncoder(s, c.tr)
        if (first == null) first = split
        val traced = new Codes(d.numPoints.toInt)
        val nsT = c.jvm.window {
          c.tr.span("core.pass") {
            var t = 1
            while (t <= len) {
              c.tr.nextRequest()
              c.tr.span("core.step")(traced ++= split.step(t, d.input(t)))
              t += 1
            }
          }
        }
        tracedNs += nsT
        c.op("traced build pass", mismatches(codes, traced.arr))
        val self = c.tr.selfNs(from, c.tr.size)
        for ((name, v) <- self) layerMs.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v / 1e6
        coverage += 100.0 * (1.0 - (self("core.pass") + self("core.step")).toDouble / nsT)
        val (_, nsD) = decodePass(enc, codes)
        decodeNs += nsD
      }
      def med(name: String): Double = Stats.median(layerMs(name))
      val passes = tracedNs.length
      for (l <- Seq("core.frontend.plan", "core.frontend.commit", "core.codebook.quantize", "core.cqc.encode",
                    "core.cqc.refine"))
        c.layer(l + "_ms", med(l), "ms", passes)
      c.layer("core.decoder.reconstruct_ms", Stats.median(decodeNs) / 1e6, "ms", decodeNs.length)
      c.layer("core.frontend.partitions_per_step", first.partitions.toDouble / first.steps, "count", first.steps)
      c.layer("core.codebook.codewords", first.codewords.toDouble, "count", 1)
      c.layer("core.codebook.new_word_ratio", first.codewords / nPts, "ratio", first.nPoints)
      c.layer("core.cqc.bits_per_point", first.cqcBits / nPts, "bits", first.nPoints)
      c.layer("trace.pass_ms", Stats.median(tracedNs) / 1e6, "ms", passes)
      c.layer("trace.layer_coverage_pct", Stats.median(coverage), "%", passes)
      c.layer("trace.overhead_pct", overheadPct(tracedNs, buildNs), "%", passes)
    }
  }

  /** Traced minus untraced median time, as a share of the untraced one. */
  def overheadPct(traced: collection.Seq[Double], untraced: collection.Seq[Double]): Double =
    100.0 * (Stats.median(traced) - Stats.median(untraced)) / Stats.median(untraced)

  // --- queries, shared by porto-query and geolife-stream ----------------------

  final class QueryLog {
    val queries = mutable.ArrayBuffer.empty[Query]
    val answers = mutable.ArrayBuffer.empty[Set[Int]]
    val strqNs = mutable.ArrayBuffer.empty[Double]
    val tracedStrqNs = mutable.ArrayBuffer.empty[Double]
    var candidates = 0L
    var hits = 0L
    var strqs = 0L
    def clear(): Unit = {
      queries.clear(); answers.clear(); strqNs.clear(); tracedStrqNs.clear()
      candidates = 0; hits = 0; strqs = 0
    }
  }

  /** Checks every logged answer against `Queries.groundTruth`. */
  def checkAnswers(c: Ctx, d: Data, s: Setting, log: QueryLog, what: String,
                   truth: mutable.HashMap[Query, Set[Int]]): Unit = {
    var i = 0
    while (i < log.queries.length) {
      val q = log.queries(i)
      val ok = truth.getOrElseUpdate(q, Repro.groundTruth(d, q, s)) == log.answers(i)
      c.op(what, if (ok) 0 else 1)
      i += 1
    }
  }

  def queryLayers(c: Ctx, log: QueryLog, from: Int): Unit = {
    val self = c.tr.selfNs(from, c.tr.size)
    val n = c.tr.counts(from, c.tr.size)
    for (l <- Seq("query.candidates", "query.refine", "query.tpq_path") if n.contains(l))
      c.layer(l + "_ms", self(l) / 1e6 / n(l), "ms", n(l))
    c.layer("query.candidates_per_strq", log.candidates.toDouble / log.strqs, "count", log.strqs)
    c.layer("query.refine_hit_ratio", log.hits.toDouble / math.max(1L, log.candidates), "ratio", log.candidates)
  }

  // --- porto-query -----------------------------------------------------------

  /** Exact STRQ and TPQ in turn over a summary built and decoded in set-up. */
  def portoQuery(c: Ctx): Unit = {
    val (n, len, l, pool) = (1600, 150, 30, 4096)
    c.inputs ++= Seq("generator" -> "TrajGen.portoLike", "trajectories" -> n, "length" -> len, "seed" -> c.seed,
      "config" -> "EvalConfig.porto", "mode" -> "Autocorr", "cqc" -> true, "tpq_l" -> l, "query_pool" -> pool)
    val s = Repro.portoAutocorr
    val (d, codes, recon) = c.setup(3) {
      val d = generate(c, Repro.portoLike(n, len, c.seed))
      val (enc, codes) = encodeAll(d, s)
      (d, codes, Repro.decode(enc.decodeInput(codes)))
    }
    c.op("summary build", codeViolations(d, s, codes) + decodeViolations(codes, recon))

    val rng = new scala.util.Random(c.seed * 7919 + 1)
    val qs = Array.fill(pool)(Repro.queryAt(d, rng.nextInt(n), 1 + rng.nextInt(len)))
    val log = new QueryLog
    val tpqNs = mutable.ArrayBuffer.empty[Double]
    val tracedTpqNs = mutable.ArrayBuffer.empty[Double]
    var pathBad = 0L
    var next = 0

    /** Operation i: STRQ when i/2 is even, else TPQ; traced runs trace odd i. */
    def runOp(i: Int): Unit = {
      val q = qs(next % pool); next += 1
      val isStrq = (i / 2) % 2 == 0
      val traceIt = c.traced && i % 2 == 1
      val tr = if (traceIt) c.tr else untraced
      tr.nextRequest()
      var hits: Set[Int] = null
      var paths: mutable.ArrayBuffer[(Int, Int, Pt)] = null
      val t0 = System.nanoTime()
      if (isStrq) hits = tr.span("query.strq")(strqWith(tr, recon, d, q, s, log))
      else tr.span("query.tpq") {
        hits = strqWith(tr, recon, d, q, s, log)
        paths = tr.span("query.tpq_path")(Repro.tpqPaths(recon, d, hits, q.t, l))
      }
      val ns = (System.nanoTime() - t0).toDouble
      log.queries += q; log.answers += hits
      if (isStrq) (if (traceIt) log.tracedStrqNs else log.strqNs) += ns
      else {
        (if (traceIt) tracedTpqNs else tpqNs) += ns
        val expect = hits.size * (math.min(len, q.t + l) - q.t)
        val far = paths.count { case (id, u, p) => Repro.dist(d.point(id, u), p) > s.refinedBound + Slack }
        pathBad += far + math.abs(paths.length - expect)
      }
    }

    var op = 0
    settle(c, min = 3, max = 8, tol = 0.15) {
      val t0 = System.nanoTime()
      var k = 0
      while (k < 2000) { runOp(op); op += 1; k += 1 }
      (System.nanoTime() - t0) / 1e9
    }
    // The warm-up ran the same code as the timed phase; drop its samples.
    log.clear(); tpqNs.clear(); tracedTpqNs.clear(); pathBad = 0
    c.jvm.fullGc()
    val from = c.tr.size
    c.beginTimed()
    val end = c.deadline
    c.jvm.window {
      while (op % 4 != 0 || log.strqNs.length < 1000 || tpqNs.length < 1000 || System.nanoTime() < end) {
        runOp(op); op += 1
      }
    }
    checkAnswers(c, d, s, log, "exact STRQ", mutable.HashMap.empty)
    c.op("TPQ paths", pathBad)
    c.notes("strq_p50_ms_per_1000") = log.strqNs.grouped(1000).map(g => math.rint(Stats.median(g) / 1e2) / 1e4).toSeq
    val strqMs = log.strqNs.map(_ / 1e6)
    val tpqMs = tpqNs.map(_ / 1e6)
    c.endToEnd("strq_p50_ms", Stats.median(strqMs), "ms", strqMs.length)
    c.endToEnd("strq_p99_ms", Stats.percentile(strqMs, 99), "ms", strqMs.length)
    c.endToEnd("strq_qps", strqMs.length / (strqMs.sum / 1e3), "1/s", strqMs.length)
    c.endToEnd("tpq_p50_ms", Stats.median(tpqMs), "ms", tpqMs.length)
    c.endToEnd("tpq_p99_ms", Stats.percentile(tpqMs, 99), "ms", tpqMs.length)
    if (c.traced) {
      // Candidate and hit counts over the whole pool, so they repeat exactly.
      val counts = new QueryLog
      qs.foreach(q => strqWith(untraced, recon, d, q, s, counts))
      queryLayers(c, counts, from)
      c.layer("trace.overhead_pct", overheadPct(log.tracedStrqNs, log.strqNs), "%", log.tracedStrqNs.length)
    }
    liveHeap(c, (d, recon))
  }

  private val untraced = new Trace(false)

  private def strqWith(tr: Trace, recon: collection.Map[(Int, Int), Pt], d: Data, q: Query, s: Setting,
                       log: QueryLog): Set[Int] = {
    val cands = tr.span("query.candidates")(Repro.candidates(recon, d, q, s))
    val hits = tr.span("query.refine")(Repro.refine(cands, d, q, s))
    log.candidates += cands.size; log.hits += hits.size; log.strqs += 1
    hits
  }

  // --- geolife-stream -----------------------------------------------------------

  /** PPQ-S ingest with TPI over a GeoLife-like stream; after every timestamp a
    * fixed number of exact STRQs over the refined points stored so far. */
  def geolifeStream(c: Ctx): Unit = {
    val (n, len, perStep, epsC, epsD) = (1200, 260, 4, 0.5, 0.8)
    c.inputs ++= Seq("generator" -> "TrajGen.geolifeLike", "trajectories" -> n, "length" -> len,
      "data_seed" -> StreamDataSeed, "query_seed" -> c.seed, "config" -> "EvalConfig.geolife", "mode" -> "Spatial",
      "cqc" -> true, "eps_c" -> epsC, "eps_d" -> epsD, "strq_per_step" -> perStep)
    // The stream itself is fixed; the run's seed picks the query positions.
    // ingest_step_p99_ms is set by the few largest TPI rebuilds of a stream,
    // and those ranged from 9 to 30 ms across generator seeds (see NOTE.md).
    val d = c.setup(5)(generate(c, Repro.geolifeLike(n, len, StreamDataSeed)))
    val s = Repro.geolifeSpatial
    val nPts = d.numPoints.toDouble

    final case class Pass(codes: Array[CodedPoint], stepNs: Array[Double], log: QueryLog,
                          tpi: Repro.Tpi, store: collection.Map[(Int, Int), Pt], summaryBits: Long,
                          split: Repro.SplitEncoder, enc: Repro.Encoder)

    /** One pass over the stream; `traced` passes run the split encoder. */
    def pass(traced: Boolean): Pass = {
      val tr = if (traced) c.tr else untraced
      val enc = if (traced) null else new Repro.Encoder(s)
      val split = if (traced) new Repro.SplitEncoder(s, tr) else null
      val tpi = new Repro.Tpi(s, epsC, epsD)
      val store = Repro.newRefinedStore()
      val codes = new Codes(d.numPoints.toInt)
      val stepNs = new Array[Double](len)
      val log = new QueryLog
      val rng = new scala.util.Random(c.seed * 7919 + 2)
      def body(): Unit = {
        var t = 1
        while (t <= len) {
          val in = d.input(t)
          tr.nextRequest()
          var coded: Array[CodedPoint] = null
          val t0 = System.nanoTime()
          tr.span("stream.step") {
            coded = if (traced) split.step(t, in) else enc.step(t, in)
            tr.span("index.tpi.step")(tpi.step(t, in))
          }
          stepNs(t - 1) = (System.nanoTime() - t0).toDouble
          codes ++= coded
          var i = 0
          while (i < coded.length) { store((coded(i).trajId, t)) = coded(i).refined; i += 1 }
          var k = 0
          while (k < perStep) {
            val q = Repro.queryAt(d, rng.nextInt(n), 1 + rng.nextInt(t))
            tr.nextRequest()
            val q0 = System.nanoTime()
            val hits = tr.span("query.strq")(strqWith(tr, store, d, q, s, log))
            log.strqNs += (System.nanoTime() - q0).toDouble
            log.queries += q; log.answers += hits
            k += 1
          }
          t += 1
        }
      }
      c.jvm.fullGc()
      c.jvm.window(body())
      Pass(codes.arr, stepNs, log, tpi, store, if (traced) 0L else enc.summaryBits, split, enc)
    }

    var reference: Array[CodedPoint] = null
    val truth = mutable.HashMap.empty[Query, Set[Int]] // every pass asks the same queries
    /** Checks every point and answer of a pass; its codes must equal the
      * first pass's, whose codes are also decoded and compared. */
    def check(p: Pass): Unit = {
      for (t <- 0 until len) c.op("ingest step", codeViolations(d, s, p.codes, t * n, (t + 1) * n))
      checkAnswers(c, d, s, p.log, "exact STRQ", truth)
      if (reference == null) {
        c.op("decode pass", decodeViolations(p.codes, Repro.decode(p.enc.decodeInput(p.codes))))
        reference = p.codes
      } else c.op("pass determinism", mismatches(reference, p.codes))
    }

    // Warm-up: whole checked passes, exactly as timed below.
    settle(c, min = 5, max = 8, tol = 0.1) {
      val p = pass(traced = false)
      check(p)
      p.stepNs.sum / 1e9
    }
    c.beginTimed()
    val end = c.deadline
    val steps = mutable.ArrayBuffer.empty[Double]
    val strqs = mutable.ArrayBuffer.empty[Double]
    if (!c.traced) {
      var last: Pass = null
      var passes = 0
      while (passes < 4 || System.nanoTime() < end) { // 4 x 260 steps: 1,040 samples
        last = pass(traced = false)
        check(last)
        steps ++= last.stepNs; strqs ++= last.log.strqNs
        passes += 1
      }
      c.notes("stream_passes") = passes
      val stepMs = steps.map(_ / 1e6)
      val strqMs = strqs.map(_ / 1e6)
      // Ingest throughput: points over the encoder and TPI time of all timed
      // passes.
      c.notes("pass_ingest_ms") = steps.grouped(len).map(g => math.rint(g.sum / 1e4) / 100).toSeq
      c.endToEnd("build_pts_per_s", nPts * passes / (steps.sum / 1e9), "pts/s", passes)
      c.endToEnd("ingest_step_p50_ms", Stats.median(stepMs), "ms", stepMs.length)
      c.endToEnd("ingest_step_p99_ms", Stats.percentile(stepMs, 99), "ms", stepMs.length)
      c.endToEnd("strq_p50_ms", Stats.median(strqMs), "ms", strqMs.length)
      c.endToEnd("strq_p99_ms", Stats.percentile(strqMs, 99), "ms", strqMs.length)
      c.endToEnd("summary_bytes_per_point", last.summaryBits / 8.0 / nPts, "bytes", 1)
      c.endToEnd("mae_m", maeMeters(d, last.codes), "m", last.codes.length)
      liveHeap(c, (d, last.store, last.tpi, last.enc))
    } else {
      // Traced: an untraced pass and a traced pass in turn; the traced
      // pass's codes must equal the untraced ones.
      val tracedSteps = mutable.ArrayBuffer.empty[Double]
      val layerMs = mutable.HashMap.empty[String, mutable.ArrayBuffer[Double]]
      val logs = new QueryLog
      var first: Pass = null
      var tpiSteps = 0L
      var tpiNs = 0L
      var passes = 0
      while (passes < 2 || System.nanoTime() < end) {
        val u = pass(traced = false)
        check(u)
        steps ++= u.stepNs
        val from = c.tr.size
        val p = pass(traced = true)
        check(p)
        tracedSteps ++= p.stepNs
        val self = c.tr.selfNs(from, c.tr.size)
        val cnt = c.tr.counts(from, c.tr.size)
        for ((name, v) <- self) layerMs.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v / 1e6
        tpiSteps += cnt("index.tpi.step"); tpiNs += self("index.tpi.step")
        if (first == null) { first = p; logs.candidates = p.log.candidates; logs.hits = p.log.hits; logs.strqs = p.log.strqs }
        passes += 1
      }
      for (l <- Seq("core.frontend.plan", "core.frontend.commit", "core.codebook.quantize", "core.cqc.encode",
                    "core.cqc.refine"))
        c.layer(l + "_ms", Stats.median(layerMs(l)), "ms", passes)
      c.layer("core.frontend.partitions_per_step", first.split.partitions.toDouble / first.split.steps, "count", len)
      c.layer("core.codebook.codewords", first.split.codewords.toDouble, "count", 1)
      c.layer("core.codebook.new_word_ratio", first.split.codewords / nPts, "ratio", first.split.nPoints)
      c.layer("core.cqc.bits_per_point", first.split.cqcBits / nPts, "bits", first.split.nPoints)
      c.layer("index.tpi.step_ms", tpiNs / 1e6 / tpiSteps, "ms", tpiSteps)
      c.layer("index.tpi.periods", first.tpi.periods.toDouble, "count", 1)
      c.layer("index.tpi.rebuilds", first.tpi.rebuilds.toDouble, "count", 1)
      c.layer("index.tpi.insertions", first.tpi.insertions.toDouble, "count", 1)
      c.layer("index.tpi.bytes_per_point", first.tpi.sizeBits / 8.0 / nPts, "bytes", 1)
      val strqSpans = passes.toLong * len * perStep
      for (l <- Seq("query.candidates", "query.refine"))
        c.layer(l + "_ms", layerMs(l).sum / strqSpans, "ms", strqSpans)
      c.layer("query.candidates_per_strq", logs.candidates.toDouble / logs.strqs, "count", logs.strqs)
      c.layer("query.refine_hit_ratio", logs.hits.toDouble / math.max(1L, logs.candidates), "ratio", logs.candidates)
      c.layer("trace.overhead_pct", overheadPct(tracedSteps, steps), "%", tracedSteps.length)
    }
  }
}
