package ppqbench

import repro.core.Pt
import scala.collection.mutable

/** spark-porto: `SparkPpq.buildSummary` over Porto-like data in `local[n]`.
  * The session starts in set-up; each timed build is materialised by a
  * count. This is the only workload that loads Spark. */
object SparkWorkload {
  def run(c: Ctx): Unit = {
    val (n, len, groups) = (400, 150, 8)
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)
    c.inputs ++= Seq("generator" -> "TrajGen.portoLike", "trajectories" -> n, "length" -> len, "seed" -> c.seed,
      "config" -> "EvalConfig.porto", "mode" -> "Autocorr", "cqc" -> true, "groups" -> groups,
      "master" -> s"local[$threads]")
    val s = Repro.portoAutocorr
    val localDir = c.outDir.resolve("spark-local").toAbsolutePath.toString
    // Set-up: input, session and the cached input frame. It is repeated, and
    // every session but the last is stopped again (untimed).
    var session: ReproSpark.Session = null
    try {
      val (d, raw) = c.setup(5, release = () => { session.stop(); session = null }) {
        val d = Workloads.generate(c, Repro.portoLike(n, len, c.seed))
        session = c.tr.span("spark.session")(new ReproSpark.Session(threads, localDir))
        (d, ReproSpark.rawFrame(session, d))
      }
      val nPts = d.numPoints
      val untraced = new Trace(false)
      def build(tr: Trace = c.tr): Double = {
        var count = 0L
        tr.nextRequest()
        val ns = c.jvm.window { count = tr.span("spark.build")(ReproSpark.build(session, raw, s, groups).count()) }
        c.op("spark build", math.abs(count - nPts))
        ns
      }
      // Spark generates and compiles new classes for every job: builds keep
      // getting faster for about ten builds (3.2 s, then 1.4 s down to 0.7 s).
      Workloads.settle(c, min = 8, max = 12, tol = 0.1)(build() / 1e9)
      c.jvm.fullGc()
      c.beginTimed()
      val end = c.deadline
      val builds = mutable.ArrayBuffer.empty[Double]
      // Traced runs alternate traced and untraced builds, for the overhead.
      val plain = mutable.ArrayBuffer.empty[Double]
      while (builds.length < 8 || System.nanoTime() < end) {
        builds += build()
        if (c.traced) plain += build(untraced)
      }
      c.notes("build_ms") = builds.map(x => math.rint(x / 1e4) / 100)
      c.endToEnd("build_pts_per_s", nPts * builds.length / (builds.sum / 1e9), "pts/s", builds.length)
      if (c.traced) c.layer("spark.build_ms", Stats.median(builds) / 1e6, "ms", builds.length)

      // Checks: every summarised point within Lemma 3's bound of its raw
      // point, and a sample of exact STRQs equal to the sequential truth.
      val summary = ReproSpark.build(session, raw, s, groups).cache()
      val rows = summary.rows()
      val keys = rows.iterator.map(r => (r.trajId, r.t)).toSet
      val devs = rows.map(r => Repro.dist(d.point(r.trajId, r.t), Pt(r.xr, r.yr)))
      val far = devs.count(_ > s.refinedBound + 1e-12)
      c.op("spark summary", far + math.abs(rows.length - nPts) + math.abs(keys.size - nPts))
      c.endToEnd("mae_m", Repro.metersOf(devs.sum / devs.length), "m", devs.length)
      val rng = new scala.util.Random(c.seed * 7919 + 3)
      for (_ <- 0 until 3) {
        val q = Repro.queryAt(d, rng.nextInt(n), 1 + rng.nextInt(len))
        c.op("spark exact STRQ", if (ReproSpark.strqExact(summary, raw, s, d, q) == Repro.groundTruth(d, q, s)) 0 else 1)
      }
      summary.unpersist()
      val (points, bits) = ReproSpark.summaryBits(session, raw, s, groups)
      c.op("spark group stats", math.abs(points - nPts))
      c.endToEnd("summary_bytes_per_point", bits / 8.0 / nPts, "bytes", groups)
      Workloads.liveHeap(c, (d, raw))

      if (c.traced) {
        val sizes = ReproSpark.groupSizes(session, raw, d, groups)
        c.layer("spark.group_skew", sizes.max / (sizes.sum.toDouble / groups), "ratio", sizes.length)
        val before = session.drainedShuffleBytes()
        ReproSpark.build(session, raw, s, groups).count()
        c.layer("spark.shuffle_write_bytes_per_point", (session.drainedShuffleBytes() - before).toDouble / nPts,
          "bytes", 1)
        c.layer("trace.overhead_pct", Workloads.overheadPct(builds, plain), "%", builds.length)
      }
    } finally if (session != null) session.stop()
  }
}
