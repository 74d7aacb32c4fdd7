package ppqbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** JVM counters summed over the timed windows of a run. A full GC is only
  * ever requested between windows, through `fullGc`. */
final class Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val jit = ManagementFactory.getCompilationMXBean
  private val mem = ManagementFactory.getMemoryMXBean
  var gcMs = 0L
  var gcCount = 0L
  var jitMs = 0L
  /** Compilation time in the last window of the run: the warm-up check. */
  var lastJitMs = 0L
  var windows = 0
  /** Windows before this is set (warm-up) are timed but not counted. */
  var recording = false

  private def gcTime: Long = gcs.map(_.getCollectionTime).sum
  private def gcN: Long = gcs.map(_.getCollectionCount).sum

  /** Runs `body` as one timed window and returns its wall time in ns. */
  def window(body: => Unit): Double = {
    val g0 = gcTime; val n0 = gcN; val j0 = jit.getTotalCompilationTime
    val t0 = System.nanoTime()
    body
    val ns = (System.nanoTime() - t0).toDouble
    if (recording) {
      gcMs += gcTime - g0; gcCount += gcN - n0
      lastJitMs = jit.getTotalCompilationTime - j0
      jitMs += lastJitMs
      windows += 1
    }
    ns
  }

  def fullGc(): Unit = { System.gc(); System.gc() }

  /** Heap in use after a full GC, MB. */
  def liveHeapMb(): Double = { fullGc(); mem.getHeapMemoryUsage.getUsed / 1048576.0 }

  def startMillis: Long = ManagementFactory.getRuntimeMXBean.getStartTime
  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
  def collectors: Seq[String] = gcs.map(_.getName)
}

object Stats {
  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile, p in (0, 100]. */
  def percentile(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of nothing")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
  }
}

/** Minimal JSON writer for the result line. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""
        case '\\' => "\\\\"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c => c.toString
      } + "\""
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      java.lang.Double.toString(d)
    case f: Float => apply(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: collection.Map[_, _] => m.map { case (k, x) => apply(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case o => apply(o.toString)
  }
}
