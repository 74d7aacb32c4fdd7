package repro.index

import repro.core._
import scala.collection.{Searching, mutable}

/** Temporal partition-based index (Algorithm 4).
  *
  * Streams timestamps; keeps the current PI while the average dropping
  * rate (ADR, Eq. 12–14) of trajectory region density (TRD, Def. 5.1)
  * stays within ε_d, "Insertion"-extends it for uncovered points, and
  * "Re-build"s a fresh PI (closing the time period) when ADR exceeds ε_d.
  */
final class TpiIndex(val epsS: Double, val gc: Double, val epsC: Double, val epsD: Double) {
  import TpiIndex.Period
  private val seed = 29L // partitioning seed of the first PI; later builds add the step count

  val periods = mutable.ArrayBuffer.empty[Period]
  var insertions = 0
  var rebuilds = 0
  private var stepCount = 0

  /** ADR(t_s, t_e, ε_c): fraction of regions whose TRD dropped by more
    * than ε_c relative to their creation-time density. */
  def adr(pi: PiIndex, counts: Array[Int]): Double = {
    val n = pi.numRegions
    if (n == 0) return 1.0
    var flagged = 0
    var i = 0
    while (i < n) {
      val dBase = pi.baseDensity(i)
      val dNow = counts(i).toDouble / pi.regions(i).numCells
      if (dBase > 0) {
        val h1 = (dNow - dBase) / dBase
        if (h1 < 0 && math.abs(h1) > epsC) flagged += 1
      }
      i += 1
    }
    flagged.toDouble / n
  }

  def step(t: Int, pts: Array[(Int, Pt)]): Unit = {
    stepCount += 1
    if (periods.isEmpty) {
      periods += Period(t, t, Pi.build(t, pts, epsS, gc, seed))
      return
    }
    val cur = periods.last
    val cls = cur.pi.classify(pts)
    val counts = cur.pi.countsByRegion(cls)
    if (adr(cur.pi, counts) > epsD) {
      // Re-build: close the period, start fresh at t (Alg. 4 lines 6–9).
      cur.end = t - 1
      rebuilds += 1
      periods += Period(t, t, Pi.build(t, pts, epsS, gc, seed + stepCount))
    } else {
      cur.end = t
      cur.pi.insert(t, pts, cls)
      val out = Array.newBuilder[(Int, Pt)]
      var i = 0
      while (i < pts.length) { if (cls(i) < 0) out += pts(i); i += 1 }
      val uncovered = out.result()
      if (uncovered.nonEmpty) {
        // Insertion: index only the uncovered points (Alg. 4 lines 10–11).
        Pi.insertUncovered(cur.pi, t, uncovered, epsS, seed + stepCount)
        insertions += 1
      }
    }
  }

  /** Position in `periods` of the period holding t, or -1. Periods are
    * contiguous and sorted by start, so this is a binary search. */
  def periodIndex(t: Int): Int = {
    val i = periods.view.map(_.start).search(t) match {
      case Searching.Found(i) => i
      case Searching.InsertionPoint(i) => i - 1
    }
    if (i >= 0 && t <= periods(i).end) i else -1
  }

  def periodOf(t: Int): Option[Period] = periods.lift(periodIndex(t))

  def query(p: Pt, t: Int): Array[Int] =
    periodOf(t).map(_.pi.query(p, t)).getOrElse(Array.empty)

  def queryWithNeighbors(p: Pt, t: Int): Array[Int] =
    periodOf(t).map(_.pi.queryWithNeighbors(p, t)).getOrElse(Array.empty)

  def numPeriods: Int = periods.length
  def sizeBits: Long = periods.iterator.map(_.pi.sizeBits).sum + periods.length.toLong * 2 * 32
  def sizeMB: Double = sizeBits / 8.0 / 1e6
}

object TpiIndex {
  /** The PI that serves timestamps start to end. */
  final case class Period(start: Int, var end: Int, pi: PiIndex)
}
