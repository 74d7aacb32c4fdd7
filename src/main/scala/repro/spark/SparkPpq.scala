package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** Distributed PPQ-trajectory over Spark.
  *
  * Trajectories are partitioned across executors by a coarse spatial group
  * (grid cell of the trajectory's mean position, hashed into `numGroups`);
  * each group runs the sequential `PpqEncoder` — its own PPQ codebook and
  * coordinate-quadtree template — inside `flatMapGroups`. The resulting
  * summary is a DataFrame carrying the refined reconstruction plus g_c
  * grid-cell columns, so spatio-temporal queries are plain DataFrame
  * filters, and exact STRQ is a join of the candidate list back to the raw
  * points (the paper's refinement step).
  */
object SparkPpq {

  /** Raw input row. */
  final case class PointRow(traj_id: Int, t: Int, x: Double, y: Double)
  // NOTE: must be public — Catalyst's generated SafeProjection accesses the
  // encoder class members directly and Janino rejects private nested types.
  final case class GroupedPoint(group: Int, traj_id: Int, t: Int, x: Double, y: Double)

  /** One summarized point: partition id, codeword index, CQC code, and the
    * refined reconstruction. */
  final case class SummaryRow(group: Int, traj_id: Int, t: Int, part: Int, b: Int,
                              cqc_bits: Long, cqc_len: Int, xr: Double, yr: Double)

  /** Per-group codebook statistics (codewords created, summary bits). */
  final case class GroupStats(group: Int, codewords: Int, points: Long, summary_bits: Long)

  /** Assign each trajectory to a spatial group: coarse cell of its mean
    * position, hashed to [0, numGroups). */
  def assignGroups(points: DataFrame, cellDeg: Double, numGroups: Int): DataFrame =
    points.groupBy("traj_id")
      .agg(avg("x").as("mx"), avg("y").as("my"))
      .select(col("traj_id"),
        pmod(hash(floor(col("mx") / cellDeg), floor(col("my") / cellDeg)), lit(numGroups))
          .cast("int").as("group"))

  /** Build per-group PPQ summaries. `points` must have columns
    * (traj_id INT, t INT, x DOUBLE, y DOUBLE). */
  def buildSummary(spark: SparkSession, points: DataFrame, params: PpqParams,
                   numGroups: Int = 8, groupCellDeg: Double = 0.05): Dataset[SummaryRow] = {
    import spark.implicits._
    encodeGroups(spark, points, params, numGroups, groupCellDeg) { (g, _, codes) =>
      codes.iterator.map(cp => SummaryRow(g, cp.trajId, cp.t, cp.part, cp.b, cp.cqcBits, cp.cqcLen,
                                          cp.refined.x, cp.refined.y))
    }
  }

  /** Per-group codebook statistics via a second deterministic pass. */
  def groupStats(spark: SparkSession, points: DataFrame, params: PpqParams,
                 numGroups: Int = 8, groupCellDeg: Double = 0.05): Dataset[GroupStats] = {
    import spark.implicits._
    encodeGroups(spark, points, params, numGroups, groupCellDeg) { (g, enc, _) =>
      Iterator.single(GroupStats(g, enc.codebook.size, enc.nPoints, enc.summaryBits))
    }
  }

  /** Runs one `PpqEncoder` per spatial group over that group's timestamps in
    * increasing order, then hands `emit` the group, its encoder and its codes. */
  private def encodeGroups[T: Encoder](spark: SparkSession, points: DataFrame, params: PpqParams,
                                       numGroups: Int, groupCellDeg: Double)(
      emit: (Int, PpqEncoder, Array[CodedPoint]) => Iterator[T]): Dataset[T] = {
    import spark.implicits._
    points.join(assignGroups(points, groupCellDeg, numGroups), "traj_id")
      .select(col("group"), col("traj_id"), col("t"), col("x"), col("y"))
      .as[GroupedPoint]
      .groupByKey(_.group)
      .flatMapGroups { (g, it) =>
        val enc = new PpqEncoder(params)
        val codes = it.toArray.groupBy(_.t).toArray.sortBy(_._1).flatMap { case (t, arr) =>
          enc.step(t, arr.map(p => (p.traj_id, Pt(p.x, p.y))))
        }
        emit(g, enc, codes)
      }
  }

  /** Attach g_c grid-cell columns to a summary (or raw) DataFrame whose
    * position columns are (`xCol`, `yCol`). */
  def withCells(df: DataFrame, gc: Double, originX: Double, originY: Double,
                xCol: String = "xr", yCol: String = "yr"): DataFrame =
    df.withColumn("cell_x", floor((col(xCol) - originX) / gc).cast("long"))
      .withColumn("cell_y", floor((col(yCol) - originY) / gc).cast("long"))

  /** Approximate STRQ: filter the indexed summary on (t, cell). */
  def strq(indexed: DataFrame, x: Double, y: Double, t: Int, gc: Double,
           originX: Double, originY: Double): DataFrame = {
    val cx = math.floor((x - originX) / gc).toLong
    val cy = math.floor((y - originY) / gc).toLong
    indexed.filter(col("t") === t && col("cell_x") === cx && col("cell_y") === cy)
      .select(col("traj_id")).distinct()
  }

  /** Candidate list with CQC local search: reconstructions within the query
    * cell dilated by radius (√2/2)·g_s (§5.2). */
  def strqCandidates(summary: DataFrame, x: Double, y: Double, t: Int, gc: Double,
                     originX: Double, originY: Double, radiusDeg: Double): DataFrame = {
    val cx = math.floor((x - originX) / gc).toLong
    val cy = math.floor((y - originY) / gc).toLong
    val x0 = originX + cx * gc - radiusDeg
    val x1 = originX + (cx + 1) * gc + radiusDeg
    val y0 = originY + cy * gc - radiusDeg
    val y1 = originY + (cy + 1) * gc + radiusDeg
    summary.filter(col("t") === t &&
      col("xr") >= x0 && col("xr") < x1 && col("yr") >= y0 && col("yr") < y1)
      .select(col("traj_id")).distinct()
  }

  /** Exact STRQ: refine the candidate list against the raw points — the
    * DataFrame join realisation of §5.2's "accessing the original
    * trajectory of the candidate list". */
  def strqExact(summary: DataFrame, raw: DataFrame, x: Double, y: Double, t: Int,
                gc: Double, originX: Double, originY: Double, radiusDeg: Double): DataFrame = {
    val cx = math.floor((x - originX) / gc).toLong
    val cy = math.floor((y - originY) / gc).toLong
    val cands = strqCandidates(summary, x, y, t, gc, originX, originY, radiusDeg)
    raw.filter(col("t") === t)
      .join(cands, "traj_id")
      .filter(floor((col("x") - originX) / gc) === cx && floor((col("y") - originY) / gc) === cy)
      .select(col("traj_id")).distinct()
  }

  /** TPQ over the summary: the sub-trajectories of the candidate ids in
    * (t, t+l], read straight off the indexed summary (Def. 5.3). */
  def tpq(summary: DataFrame, candidates: DataFrame, t: Int, l: Int): DataFrame =
    summary.join(candidates, "traj_id")
      .filter(col("t") > t && col("t") <= t + l)
      .select(col("traj_id"), col("t"), col("xr"), col("yr"))
}
