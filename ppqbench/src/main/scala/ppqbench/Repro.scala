package ppqbench

import repro.core._
import repro.data.{TrajDataset, TrajGen}
import repro.eval.EvalConfig
import repro.index.TpiIndex
import repro.query.{Queries, Strq}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Every call the benchmark makes into `repro.*` goes through this file, so
  * a change to the encoder, summary or query APIs changes the benchmark in
  * one place. `Repro` holds the sequential layers; `ReproSpark` holds the
  * Spark layer and is only touched by the Spark workload, so sequential runs
  * never load a Spark class. */
object Repro {
  type Input = Array[(Int, Pt)]

  final case class Data(ds: TrajDataset, steps: Array[Input]) {
    def len: Int = ds.len
    def numPoints: Long = ds.numPoints
    def point(id: Int, t: Int): Pt = ds.point(id, t)
    def input(t: Int): Input = steps(t - 1)
  }

  private def withSteps(ds: TrajDataset): Data = Data(ds, Array.tabulate(ds.len)(i => ds.pointsAt(i + 1)))
  def portoLike(n: Int, len: Int, seed: Long): Data = withSteps(TrajGen.portoLike(n, len, seed))
  def geolifeLike(n: Int, len: Int, seed: Long): Data = withSteps(TrajGen.geolifeLike(n, len, seed))

  // --- parameters ---------------------------------------------------------
  final case class Setting(cfg: EvalConfig, params: PpqParams) {
    def eps1: Double = params.eps1
    def gs: Double = params.gs.get
    def gc: Double = cfg.gcDeg
    def cqcRadius: Double = cfg.cqcRadiusDeg
    /** Lemma 3's bound on a refined point's deviation. */
    def refinedBound: Double = math.sqrt(2.0) / 2.0 * gs
  }
  def portoAutocorr: Setting = { val c = EvalConfig.porto; Setting(c, c.params(PartitionMode.Autocorr, useCqc = true)) }
  def geolifeSpatial: Setting = { val c = EvalConfig.geolife; Setting(c, c.params(PartitionMode.Spatial, useCqc = true)) }
  def metersOf(deg: Double): Double = Geo.toMeters(deg)

  // --- encoder ------------------------------------------------------------
  final class Encoder(s: Setting) {
    private val enc = new PpqEncoder(s.params)
    def step(t: Int, in: Input): Array[CodedPoint] = enc.step(t, in)
    def summaryBits: Long = enc.summaryBits
    /** Arguments of `PpqDecoder.reconstruct`, taken outside its timed window. */
    def decodeInput(codes: Array[CodedPoint]): DecodeInput =
      DecodeInput(s.params, enc.codebook.codewords, enc.steps.toSeq, ArraySeq.unsafeWrapArray(codes))
  }

  final case class DecodeInput(params: PpqParams, words: IndexedSeq[Pt], steps: Seq[StepSummary],
                               codes: Seq[CodedPoint])
  def decode(in: DecodeInput): Map[(Int, Int), Pt] =
    PpqDecoder.reconstruct(in.params, in.words, in.steps, in.codes)

  /** `PpqEncoder.step` split into its public pieces, in `step`'s order, so a
    * traced run can time each layer. Each loop runs over every point of the
    * step before the next layer starts; the points are independent within a
    * layer, so the codes equal `PpqEncoder.step`'s (the run checks this). */
  final class SplitEncoder(s: Setting, tr: Trace) {
    private val p = s.params
    private val frontend = new PredictiveFrontend(p)
    private val codebook = new ErrorBoundedCodebook(p.eps1)
    private val qt = new CoordinateQuadtree(Cqc.sideFor(p.eps1, s.gs))
    var nPoints = 0L
    var cqcBits = 0L
    var partitions = 0L
    var steps = 0
    def codewords: Int = codebook.size

    def step(t: Int, in: Input): Array[CodedPoint] = {
      val n = in.length
      val plan = tr.span("core.frontend.plan")(frontend.plan(t, in))
      val bs = new Array[Int](n)
      val recons = new Array[Pt](n)
      tr.span("core.codebook.quantize") {
        var i = 0
        while (i < n) {
          val b = codebook.quantize(in(i)._2 - plan.preds(i))
          bs(i) = b
          recons(i) = plan.preds(i) + codebook(b)
          i += 1
        }
      }
      val codes = new Array[CqcCode](n)
      tr.span("core.cqc.encode") {
        var i = 0
        while (i < n) { codes(i) = Cqc.encode(in(i)._2, recons(i), p.eps1, s.gs, qt); i += 1 }
      }
      val out = new Array[CodedPoint](n)
      tr.span("core.cqc.refine") {
        var i = 0
        while (i < n) {
          val c = codes(i)
          out(i) = CodedPoint(in(i)._1, t, plan.assign(i), bs(i), c.bits, c.len, recons(i),
                              Cqc.refine(recons(i), c, p.eps1, s.gs, qt))
          i += 1
        }
      }
      tr.span("core.frontend.commit")(frontend.commit(in, recons))
      var i = 0
      while (i < n) { cqcBits += codes(i).len; i += 1 }
      nPoints += n
      partitions += plan.numParts
      steps += 1
      out
    }
  }

  // --- temporal partition-based index --------------------------------------
  final class Tpi(s: Setting, epsC: Double, epsD: Double) {
    private val tpi = new TpiIndex(s.cfg.epsS, s.gc, epsC, epsD)
    def step(t: Int, in: Input): Unit = tpi.step(t, in)
    def periods: Int = tpi.numPeriods
    def rebuilds: Int = tpi.rebuilds
    def insertions: Int = tpi.insertions
    def sizeBits: Long = tpi.sizeBits
  }

  // --- queries --------------------------------------------------------------
  final case class Query(x: Double, y: Double, t: Int) {
    private[Repro] def strq: Strq = Strq(x, y, t)
  }
  def queryAt(d: Data, id: Int, t: Int): Query = { val p = d.point(id, t); Query(p.x, p.y, t) }

  /** CQC local search (§5.2) over the refined points stored so far. */
  def candidates(recon: collection.Map[(Int, Int), Pt], d: Data, q: Query, s: Setting): Set[Int] =
    Queries.localSearchCandidates(recon, d.ds, q.strq, s.gc, s.cqcRadius)
  /** Raw refinement of a candidate list: the exact STRQ answer. */
  def refine(cands: Set[Int], d: Data, q: Query, s: Setting): Set[Int] =
    Queries.refineWithRaw(cands, d.ds, q.strq, s.gc)
  def groundTruth(d: Data, q: Query, s: Setting): Set[Int] = Queries.groundTruth(d.ds, q.strq, s.gc)

  /** TPQ paths (Def. 5.3): the l refined points after t of each hit, as
    * (trajectory, timestamp, point). */
  def tpqPaths(recon: collection.Map[(Int, Int), Pt], d: Data, hits: Set[Int], t: Int, l: Int
              ): mutable.ArrayBuffer[(Int, Int, Pt)] = {
    val out = mutable.ArrayBuffer.empty[(Int, Int, Pt)]
    for (id <- hits; u <- (t + 1) to math.min(d.len, t + l)) recon.get((id, u)).foreach(p => out += ((id, u, p)))
    out
  }

  def dist(a: Pt, b: Pt): Double = a.dist(b)
  def newRefinedStore(): mutable.HashMap[(Int, Int), Pt] = mutable.HashMap.empty
}

/** The Spark layer: session, input frame and `SparkPpq` calls. */
object ReproSpark {
  import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
  import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
  import repro.spark.SparkPpq
  import java.util.concurrent.atomic.AtomicLong

  final class Session(threads: Int, localDir: String) {
    val spark: SparkSession = SparkSession.builder()
      .master(s"local[$threads]").appName("ppqbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val shuffleWriteBytes = new AtomicLong()
    spark.sparkContext.addSparkListener(new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) shuffleWriteBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    })
    /** Shuffle bytes written so far, read once the listener has caught up
      * (the value has held for three polls). */
    def drainedShuffleBytes(): Long = {
      var last = -1L; var same = 0
      while (same < 3) {
        Thread.sleep(100)
        val v = shuffleWriteBytes.get
        if (v == last) same += 1 else { same = 0; last = v }
      }
      last
    }
    def stop(): Unit = spark.stop()
  }

  /** The input points as a cached frame, materialised. */
  def rawFrame(s: Session, d: Repro.Data): DataFrame = {
    import s.spark.implicits._
    val rows = d.ds.allPoints.map { case (id, t, p) => SparkPpq.PointRow(id, t, p.x, p.y) }.toSeq
    val df = rows.toDF().cache()
    df.count()
    df
  }

  /** Points and summary bits summed over `SparkPpq.groupStats`' groups. */
  def summaryBits(s: Session, raw: DataFrame, set: Repro.Setting, groups: Int): (Long, Long) = {
    val stats = SparkPpq.groupStats(s.spark, raw, set.params, groups).collect()
    (stats.map(_.points).sum, stats.map(_.summary_bits).sum)
  }

  final case class Row(trajId: Int, t: Int, xr: Double, yr: Double)

  /** A distributed summary; nothing runs until it is counted or collected. */
  final class Summary private[ReproSpark] (private[ReproSpark] val ds: Dataset[SparkPpq.SummaryRow]) {
    def count(): Long = ds.count()
    def cache(): Summary = new Summary(ds.cache())
    def rows(): Array[Row] = ds.collect().map(r => Row(r.traj_id, r.t, r.xr, r.yr))
    def unpersist(): Unit = ds.unpersist()
  }

  def build(s: Session, raw: DataFrame, set: Repro.Setting, groups: Int): Summary =
    new Summary(SparkPpq.buildSummary(s.spark, raw, set.params, groups))

  /** Points per group under `SparkPpq.assignGroups`' default grouping. */
  def groupSizes(s: Session, raw: DataFrame, d: Repro.Data, groups: Int): Array[Long] =
    SparkPpq.assignGroups(raw, 0.05, groups).collect()
      .groupBy(_.getInt(1)).values.map(_.length.toLong * d.len).toArray

  def strqExact(summary: Summary, raw: DataFrame, set: Repro.Setting, d: Repro.Data,
                q: Repro.Query): Set[Int] =
    SparkPpq.strqExact(summary.ds.toDF(), raw, q.x, q.y, q.t, set.gc, d.ds.bbox.x0, d.ds.bbox.y0, set.cqcRadius)
      .collect().map(_.getInt(0)).toSet
}
