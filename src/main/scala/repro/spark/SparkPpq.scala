package repro.spark

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import repro.core._
import repro.query.Strq
import scala.collection.mutable
import scala.reflect.ClassTag

/** Distributed PPQ-trajectory over Spark.
  *
  * Trajectories are partitioned across executors by a coarse spatial group
  * (grid cell of the trajectory's mean position, hashed into `numGroups`);
  * each group runs the sequential `PpqEncoder` — its own PPQ codebook and
  * coordinate-quadtree template. A build takes two steps:
  *  1. Group map: a map-only pass sums x, y and the point count of each
  *     trajectory per input partition; the driver merges the sums in
  *     partition order and applies the grouping rule (`groupOf`).
  *  2. Encode: one shuffle into exactly `numGroups` partitions, partition g
  *     holding group g. Each input partition sends one columnar block of
  *     points per group; each task sorts its group's points by
  *     (t, traj_id) and steps one encoder, so the codes equal a sequential
  *     encoder's over the same points, whatever the input's partitioning.
  *
  * The summary is a Dataset with one row per point: its group, partition,
  * codeword index and CQC code, and the refined reconstruction (`xr`,
  * `yr`). Exact STRQ filters it to the query's candidate box and joins the
  * candidates back to the raw points (the paper's refinement step).
  */
object SparkPpq {

  /** Raw input row. */
  final case class PointRow(traj_id: Int, t: Int, x: Double, y: Double)

  /** One summarized point: partition id, codeword index, CQC code, and the
    * refined reconstruction. */
  final case class SummaryRow(group: Int, traj_id: Int, t: Int, part: Int, b: Int,
                              cqc_bits: Long, cqc_len: Int, xr: Double, yr: Double)

  /** Per-group codebook statistics (codewords created, summary bits). */
  final case class GroupStats(group: Int, codewords: Int, points: Long, summary_bits: Long)

  /** Assign each trajectory to a spatial group: coarse cell of its mean
    * position, hashed to [0, numGroups). */
  def assignGroups(points: DataFrame, cellDeg: Double, numGroups: Int): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    val groups = groupMap(points, cellDeg, numGroups)
    groups.ids.zip(groups.groups).toSeq.toDF("traj_id", "group")
  }

  private val GroupCellDeg = 0.05 // grid cell side (degrees) `buildSummary` and `groupStats` group by

  /** Build per-group PPQ summaries. `points` must have columns
    * (traj_id INT, t INT, x DOUBLE, y DOUBLE). The summary has `numGroups`
    * partitions; partition g holds group g. */
  def buildSummary(spark: SparkSession, points: DataFrame, params: PpqParams,
                   numGroups: Int = 8): Dataset[SummaryRow] = {
    import spark.implicits._
    encodeGroups(spark, points, params, numGroups) { (g, _, codes) =>
      codes.iterator.map(cp => SummaryRow(g, cp.trajId, cp.t, cp.part, cp.b, cp.cqcBits, cp.cqcLen,
                                          cp.refined.x, cp.refined.y))
    }
  }

  /** Per-group codebook statistics via a second deterministic pass. */
  def groupStats(spark: SparkSession, points: DataFrame, params: PpqParams,
                 numGroups: Int = 8): Dataset[GroupStats] = {
    import spark.implicits._
    encodeGroups(spark, points, params, numGroups) { (g, enc, _) =>
      Iterator.single(GroupStats(g, enc.codebook.size, enc.nPoints, enc.summaryBits))
    }
  }

  /** The grouping rule, Spark SQL's
    * `pmod(hash(floor(mx / cellDeg), floor(my / cellDeg)), numGroups)` over a
    * trajectory's mean position (mx, my): `hash` is Murmur3 with seed 42,
    * chained from the x cell to the y cell. */
  private def groupOf(mx: Double, my: Double, cellDeg: Double, numGroups: Int): Int = {
    val hx = Murmur3_x86_32.hashLong(math.floor(mx / cellDeg).toLong, 42)
    Math.floorMod(Murmur3_x86_32.hashLong(math.floor(my / cellDeg).toLong, hx), numGroups)
  }

  /** Trajectory ids in increasing order, and the group of each. */
  private final class GroupMap(val ids: Array[Int], val groups: Array[Int]) extends Serializable {
    def apply(id: Int): Int = groups(java.util.Arrays.binarySearch(ids, id))
  }

  /** Running coordinate sums and point count of one trajectory. */
  private final class Sums(var x: Double, var y: Double, var n: Long) extends Serializable

  /** Step 1: the group of every trajectory, from per-partition sums merged
    * on the driver — no shuffle. */
  private def groupMap(points: DataFrame, cellDeg: Double, numGroups: Int): GroupMap = {
    require(numGroups >= 1, s"numGroups must be at least 1, got $numGroups")
    val partial = points.select(col("traj_id").cast("int"), col("x").cast("double"), col("y").cast("double"))
      .queryExecution.toRdd.mapPartitions { rows =>
        val sums = mutable.HashMap.empty[Int, Sums]
        var cur: Sums = null
        var curId = 0
        rows.foreach { r =>
          val id = r.getInt(0)
          if (cur == null || id != curId) { cur = sums.getOrElseUpdate(id, new Sums(0.0, 0.0, 0L)); curId = id }
          cur.x += r.getDouble(1); cur.y += r.getDouble(2); cur.n += 1
        }
        Iterator.single(sums.toArray)
      }.collect()
    val total = mutable.HashMap.empty[Int, Sums]
    for (part <- partial; (id, s) <- part) total.get(id) match {
      case Some(acc) => acc.x += s.x; acc.y += s.y; acc.n += s.n
      case None => total(id) = s
    }
    val ids = total.keys.toArray.sorted
    new GroupMap(ids, ids.map { id => val s = total(id); groupOf(s.x / s.n, s.y / s.n, cellDeg, numGroups) })
  }

  /** One input partition's points of one group, column by column. */
  private final class Block(val ids: Array[Int], val ts: Array[Int],
                            val xs: Array[Double], val ys: Array[Double]) extends Serializable

  private final class BlockBuilder {
    private val ids = new mutable.ArrayBuilder.ofInt
    private val ts = new mutable.ArrayBuilder.ofInt
    private val xs = new mutable.ArrayBuilder.ofDouble
    private val ys = new mutable.ArrayBuilder.ofDouble
    def add(id: Int, t: Int, x: Double, y: Double): Unit = { ids += id; ts += t; xs += x; ys += y }
    def addAll(b: Block): Unit = { ids ++= b.ids; ts ++= b.ts; xs ++= b.xs; ys ++= b.ys }
    def result(): Block = new Block(ids.result(), ts.result(), xs.result(), ys.result())
  }

  /** Sends group g to partition g. */
  private final class GroupPartitioner(val numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }

  /** Step 2: one shuffle of per-group blocks into `numGroups` partitions,
    * then one `PpqEncoder` per non-empty group; hands `emit` the group, its
    * encoder and its codes. */
  private def encodeGroups[T: Encoder: ClassTag](spark: SparkSession, points: DataFrame, params: PpqParams,
                                                 numGroups: Int)(
      emit: (Int, PpqEncoder, Array[CodedPoint]) => Iterator[T]): Dataset[T] = {
    val groups = groupMap(points, GroupCellDeg, numGroups)
    val blocks = points
      .select(col("traj_id").cast("int"), col("t").cast("int"), col("x").cast("double"), col("y").cast("double"))
      .queryExecution.toRdd.mapPartitions { rows =>
        val out = new Array[BlockBuilder](numGroups)
        var cur: BlockBuilder = null
        var curId = 0
        rows.foreach { r =>
          val id = r.getInt(0)
          if (cur == null || id != curId) {
            val g = groups(id)
            if (out(g) == null) out(g) = new BlockBuilder
            cur = out(g); curId = id
          }
          cur.add(id, r.getInt(1), r.getDouble(2), r.getDouble(3))
        }
        out.indices.iterator.filter(out(_) != null).map(g => (g, out(g).result()))
      }
    val coded = blocks.partitionBy(new GroupPartitioner(numGroups)).mapPartitionsWithIndex { (g, it) =>
      if (!it.hasNext) Iterator.empty
      else {
        val all = new BlockBuilder
        it.foreach { case (_, b) => all.addAll(b) }
        val enc = new PpqEncoder(params)
        emit(g, enc, encodeSorted(enc, all.result()))
      }
    }
    spark.createDataset(coded)
  }

  /** Steps `enc` over a group's points, timestamps in increasing order and
    * each timestamp's points by traj_id. */
  private def encodeSorted(enc: PpqEncoder, b: Block): Array[CodedPoint] = {
    val n = b.ids.length
    val byT = Array.tabulate(n)(i => (b.ts(i).toLong << 32) | i)
    java.util.Arrays.sort(byT)
    val out = new mutable.ArrayBuilder.ofRef[CodedPoint]
    var from = 0
    while (from < n) {
      val t = (byT(from) >> 32).toInt
      var until = from
      while (until < n && (byT(until) >> 32).toInt == t) until += 1
      val byId = Array.tabulate(until - from) { j => val i = byT(from + j).toInt; (b.ids(i).toLong << 32) | i }
      java.util.Arrays.sort(byId)
      out ++= enc.step(t, byId.map { k => val i = k.toInt; (b.ids(i), Pt(b.xs(i), b.ys(i))) })
      from = until
    }
    out.result()
  }

  /** Exact STRQ (§5.2): the candidates are the summary's refined points
    * inside the query's candidate box (`Strq.box`); a join back to the raw
    * points keeps those truly in the query's g_c cell. */
  def strqExact(summary: DataFrame, raw: DataFrame, x: Double, y: Double, t: Int,
                gc: Double, originX: Double, originY: Double, radiusDeg: Double): DataFrame = {
    val q = Strq(x, y, t)
    val origin = Pt(originX, originY)
    val (cx, cy) = q.cell(origin, gc)
    val box = q.box(origin, gc, radiusDeg)
    val cands = summary.filter(col("t") === t &&
      col("xr") >= box.x0 && col("xr") < box.x1 && col("yr") >= box.y0 && col("yr") < box.y1)
      .select(col("traj_id")).distinct()
    raw.filter(col("t") === t)
      .join(cands, "traj_id")
      .filter(floor((col("x") - originX) / gc) === cx && floor((col("y") - originY) / gc) === cy)
      .select(col("traj_id")).distinct()
  }
}
