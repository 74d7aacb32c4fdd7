package ppqbench

import scala.collection.mutable

/** Run context: options, counters, result and trace of one workload run. */
final class Ctx(val workload: String, val seed: Long, val seconds: Double, val traced: Boolean,
                val outDir: java.nio.file.Path) {
  val jvm = new Jvm
  val tr = new Trace(traced)
  private val mainWallMs = System.currentTimeMillis()
  private val mainNs = System.nanoTime()
  private var setupS = -1.0
  var setupReps = 0
  /** Input generation time within the current set-up repetition. */
  var genMs = 0.0

  val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  val samples = mutable.LinkedHashMap.empty[String, Long]
  val inputs = mutable.LinkedHashMap.empty[String, Any]
  val notes = mutable.LinkedHashMap.empty[String, Any]
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]

  /** Runs the workload's set-up `reps` times and returns the last result;
    * `release`, untimed, ends each result but the last. The run's set-up
    * time is the median of the repetitions; the first one also pays for
    * class loading. */
  def setup[A](reps: Int, release: () => Unit = () => ())(body: => A): A = {
    val secs = mutable.ArrayBuffer.empty[Double]
    val gen = mutable.ArrayBuffer.empty[Double]
    var out: A = null.asInstanceOf[A]
    while (secs.length < reps) {
      if (secs.nonEmpty) release()
      genMs = 0.0
      val t0 = System.nanoTime()
      out = body
      secs += (System.nanoTime() - t0) / 1e9
      gen += genMs
    }
    setupS = Stats.median(secs)
    setupReps = reps
    notes("setup_reps_s") = secs.map(x => math.rint(x * 1e4) / 1e4)
    notes("data_gen_ms") = gen.map(x => math.rint(x * 100) / 100)
    layer("data.gen_ms", Stats.median(gen), "ms", reps)
    out
  }

  /** Marks the start of the timed phase: `jvm.*` counters are recorded from
    * here on. */
  def beginTimed(): Unit =
    if (!jvm.recording) {
      notes("jvm_start_to_timed_s") = (mainWallMs - jvm.startMillis) / 1000.0 + (System.nanoTime() - mainNs) / 1e9
      jvm.recording = true
    }
  def setupSeconds: Double = setupS

  /** Counts one operation, failed when `violations` is not 0. */
  def op(what: String, violations: Long): Unit = {
    attempted += 1
    if (violations != 0) {
      failed += 1
      if (failures.length < 20) failures += s"$what: $violations violation(s)"
    }
  }

  /** An end-to-end metric (untraced runs) or a per-layer metric (traced runs). */
  def metric(name: String, value: Double, unit: String, n: Long): Unit = {
    metrics(name) = (value, unit); samples(name) = n
  }
  def endToEnd(name: String, value: Double, unit: String, n: Long): Unit = if (!traced) metric(name, value, unit, n)
  def layer(name: String, value: Double, unit: String, n: Long): Unit = if (traced) metric(name, value, unit, n)

  /** The `jvm.*` layer metrics, over every timed window of the run. */
  def jvmLayers(): Unit = {
    layer("jvm.gc_ms", jvm.gcMs.toDouble, "ms", jvm.windows)
    layer("jvm.gc_count", jvm.gcCount.toDouble, "count", jvm.windows)
    layer("jvm.jit_ms", jvm.jitMs.toDouble, "ms", jvm.windows)
    notes("jvm_windows") = jvm.windows
    notes("jvm_gc_ms") = jvm.gcMs
    notes("jvm_gc_count") = jvm.gcCount
    notes("jvm_jit_ms") = jvm.jitMs
    notes("jvm_jit_ms_last_window") = jvm.lastJitMs
  }

  def deadline: Long = System.nanoTime() + (seconds * 1e9).toLong

  def resultJson: String = Json(mutable.LinkedHashMap[String, Any](
    "correct" -> (failed == 0 && attempted > 0),
    "attempted" -> attempted,
    "failed" -> failed,
    "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u) },
    "samples" -> samples,
    "setup_s" -> setupS,
    "inputs" -> inputs,
    "notes" -> notes,
    "failures" -> failures,
    "jvm" -> mutable.LinkedHashMap[String, Any](
      "version" -> System.getProperty("java.runtime.version"),
      "vm" -> System.getProperty("java.vm.name"),
      "flags" -> jvm.flags,
      "collectors" -> jvm.collectors,
      "processors" -> Runtime.getRuntime.availableProcessors)))
}

object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val ctx = new Ctx(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
                      java.nio.file.Paths.get(need("out")))
    ctx.workload match {
      case "porto-build" => Workloads.portoBuild(ctx)
      case "porto-query" => Workloads.portoQuery(ctx)
      case "geolife-stream" => Workloads.geolifeStream(ctx)
      case "spark-porto" => SparkWorkload.run(ctx)
      case w => System.err.println(s"unknown workload: $w"); sys.exit(2)
    }
    require(ctx.setupSeconds > 0, "the workload did not time its set-up")
    if (!ctx.traced) ctx.metric("setup_s", ctx.setupSeconds, "s", ctx.setupReps)
    ctx.jvmLayers()
    if (ctx.traced) ctx.tr.write(ctx.outDir.resolve(s"trace-${ctx.workload}-seed${ctx.seed}.jsonl"))
    println("PPQBENCH_RESULT " + ctx.resultJson)
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    System.out.flush()
    sys.exit(0)
  }
}
