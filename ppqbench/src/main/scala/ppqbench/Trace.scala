package ppqbench

import scala.collection.mutable

/** In-memory span recorder. A span has a name, start and end (ns), the span
  * that encloses it and the request it serves (one build step, one query).
  * With `on = false` a span only runs its body. Spans are written out once,
  * when the run ends. */
final class Trace(val on: Boolean) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val requests = mutable.ArrayBuffer.empty[Long]
  private var current = -1
  private var request = 0L

  def size: Int = names.length

  /** Starts a new request; spans opened until the next call belong to it. */
  def nextRequest(): Unit = request += 1

  @inline def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = names.length
      names += name; starts += System.nanoTime(); ends += 0L; parents += current; requests += request
      val saved = current
      current = id
      try body
      finally { ends(id) = System.nanoTime(); current = saved }
    }

  /** Self time in ns (duration minus the time its direct children cover)
    * summed per span name, over spans with index in [from, until). */
  def selfNs(from: Int = 0, until: Int = size): Map[String, Long] = {
    val self = new Array[Long](until - from)
    var i = from
    while (i < until) {
      self(i - from) += ends(i) - starts(i)
      val p = parents(i)
      if (p >= from) self(p - from) -= ends(i) - starts(i)
      i += 1
    }
    val out = mutable.HashMap.empty[String, Long]
    i = from
    while (i < until) { out(names(i)) = out.getOrElse(names(i), 0L) + self(i - from); i += 1 }
    out.toMap
  }

  /** Number of spans per name in [from, until). */
  def counts(from: Int = 0, until: Int = size): Map[String, Int] =
    (from until until).groupBy(names(_)).map { case (n, ix) => n -> ix.length }

  /** Writes one JSON object per span. */
  def write(path: java.nio.file.Path): Unit = {
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      var i = 0
      while (i < names.length) {
        w.write(s"""{"id":$i,"name":"${names(i)}","start_ns":${starts(i)},"end_ns":${ends(i)},""" +
                s""""parent":${parents(i)},"request":${requests(i)}}""")
        w.newLine()
        i += 1
      }
    } finally w.close()
  }
}
