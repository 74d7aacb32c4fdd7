package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.Oracle
import repro.core._
import repro.data.TrajGen
import repro.query.Queries

class SparkPpqSpec extends SparkSpec {

  private lazy val data = TrajGen.portoLike(60, 25, seed = 51)
  private val params = PpqParams(epsP = 0.05, mode = PartitionMode.Spatial)
  private val gc = Geo.toDegrees(100.0)

  private lazy val rawDf = {
    import spark.implicits._
    data.allPoints.map { case (id, t, p) => SparkPpq.PointRow(id, t, p.x, p.y) }
      .toSeq.toDF().cache()
  }

  private lazy val summary = SparkPpq.buildSummary(spark, rawDf, params, numGroups = 4).cache()

  test("assignGroups maps every trajectory to exactly one group") {
    val g = SparkPpq.assignGroups(rawDf, 0.05, 4).collect()
    assert(g.length == data.numTrajs)
    assert(g.map(_.getInt(1)).forall(x => x >= 0 && x < 4))
  }

  test("assignGroups keeps the SQL grouping rule") {
    for (cell <- Seq(0.05, 0.005); n <- Seq(1, 4, 7)) {
      val reference = rawDf.groupBy("traj_id")
        .agg(avg("x").as("mx"), avg("y").as("my"))
        .select(col("traj_id"),
          pmod(hash(floor(col("mx") / cell), floor(col("my") / cell)), lit(n)).cast("int").as("group"))
      assert(SparkPpq.assignGroups(rawDf, cell, n).collect().toSet == reference.collect().toSet, s"cell $cell, $n groups")
    }
  }

  test("numGroups below 1 is rejected on the driver") {
    for (n <- Seq(0, -2)) {
      intercept[IllegalArgumentException](SparkPpq.buildSummary(spark, rawDf, params, numGroups = n))
      intercept[IllegalArgumentException](SparkPpq.groupStats(spark, rawDf, params, numGroups = n))
      intercept[IllegalArgumentException](SparkPpq.assignGroups(rawDf, 0.05, n))
    }
  }

  test("each group's rows and stats equal a sequential PpqEncoder over its trajectories in (t, traj_id) order") {
    val groupOf = SparkPpq.assignGroups(rawDf, 0.05, 4).collect().map(r => r.getInt(0) -> r.getInt(1))
    val rows = summary.collect()
    val stats = SparkPpq.groupStats(spark, rawDf, params, numGroups = 4).collect()
    val groups = groupOf.groupBy(_._2).map { case (g, m) => g -> m.map(_._1).sorted }
    assert(rows.map(_.group).toSet == groups.keySet && stats.map(_.group).toSet == groups.keySet)
    for ((g, ids) <- groups) {
      val enc = new PpqEncoder(params)
      val expected = (1 to data.len).flatMap(t => enc.step(t, ids.map(id => (id, data.point(id, t)))))
        .map(cp => SparkPpq.SummaryRow(g, cp.trajId, cp.t, cp.part, cp.b, cp.cqcBits, cp.cqcLen,
                                       cp.refined.x, cp.refined.y))
      assert(rows.filter(_.group == g).sortBy(r => (r.t, r.traj_id)).toSeq == expected, s"group $g")
      assert(stats.filter(_.group == g).toSeq ==
        Seq(SparkPpq.GroupStats(g, enc.codebook.size, enc.nPoints, enc.summaryBits)), s"group $g")
    }
  }

  /** Runs `body` with one SQL conf of the shared session set, then restores it. */
  private def withConf[A](key: String, value: String)(body: => A): A = {
    val old = spark.conf.getOption(key)
    spark.conf.set(key, value)
    try body finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  test("the summary does not depend on the input's partitioning, row order or shuffle coalescing") {
    import spark.implicits._
    val reversed = rawDf.as[SparkPpq.PointRow].collect().reverse.toSeq.toDF().repartition(3)
    val expected = summary.collect().sortBy(r => (r.traj_id, r.t)).toSeq
    assert(SparkPpq.buildSummary(spark, reversed, params, numGroups = 4).collect()
      .sortBy(r => (r.traj_id, r.t)).toSeq == expected)
    // without adaptive coalescing, points reach a group from many shuffle
    // partitions, in no fixed order
    val uncoalesced = withConf("spark.sql.adaptive.enabled", "false") {
      SparkPpq.buildSummary(spark, reversed, params, numGroups = 4).collect()
    }
    assert(uncoalesced.sortBy(r => (r.traj_id, r.t)).toSeq == expected)
  }

  test("the summary has numGroups partitions, partition g holding only group g") {
    val parts = SparkPpq.buildSummary(spark, rawDf, params, numGroups = 5).rdd
      .mapPartitionsWithIndex((i, it) => Iterator(i -> it.map(_.group).toSet)).collect()
    assert(parts.length == 5)
    assert(parts.forall { case (i, gs) => gs.subsetOf(Set(i)) }, parts.toSeq)
    assert(parts.count(_._2.nonEmpty) > 1)
  }

  test("summary has one row per raw point") {
    assert(summary.count() == data.numPoints)
  }

  test("distributed summary respects the CQC deviation bound per point") {
    val bound = math.sqrt(2.0) / 2.0 * params.gs.get + 1e-12
    val joined = summary.toDF().join(rawDf, Seq("traj_id", "t"))
      .select(col("xr"), col("yr"), col("x"), col("y")).collect()
    assert(joined.length == data.numPoints)
    for (r <- joined) {
      val d = Pt(r.getDouble(0), r.getDouble(1)).dist(Pt(r.getDouble(2), r.getDouble(3)))
      assert(d <= bound, s"deviation ${Geo.toMeters(d)} m")
    }
  }

  test("distributed MAE matches a single-node encoder per group (within bound)") {
    val joined = summary.toDF().join(rawDf, Seq("traj_id", "t"))
    val mae = joined.select(
      (avg(sqrt((col("xr") - col("x")) * (col("xr") - col("x")) +
                (col("yr") - col("y")) * (col("yr") - col("y")))) * Geo.MetersPerDegree).as("mae"))
      .collect()(0).getDouble(0)
    assert(mae > 0 && mae <= Geo.toMeters(math.sqrt(2.0) / 2.0 * params.gs.get))
  }

  test("groupStats reports codebooks per spatial group") {
    val stats = SparkPpq.groupStats(spark, rawDf, params, numGroups = 4).collect()
    assert(stats.nonEmpty && stats.length <= 4)
    assert(stats.map(_.points).sum == data.numPoints)
    assert(stats.forall(_.codewords > 0))
    assert(stats.forall(_.summary_bits > 0))
  }

  test("exact STRQ (candidates + raw join) equals ground truth for many queries") {
    val radius = math.sqrt(2.0) / 2.0 * params.gs.get
    for (q <- Queries.sampleQueries(data, 15, seed = 2)) {
      val ids = SparkPpq.strqExact(summary.toDF(), rawDf, q.x, q.y, q.t, gc,
        data.bbox.x0, data.bbox.y0, radius).collect().map(_.getInt(0)).toSet
      assert(ids == Queries.groundTruth(data, q, gc), s"query $q")
    }
  }

  test("exact STRQ matches the DuckDB oracle") {
    val q = Queries.sampleQueries(data, 1, seed = 3).head
    val radius = math.sqrt(2.0) / 2.0 * params.gs.get
    val ox = data.bbox.x0; val oy = data.bbox.y0
    val qx = math.floor((q.x - ox) / gc).toLong
    val qy = math.floor((q.y - oy) / gc).toLong
    val sparkDf = SparkPpq.strqExact(summary.toDF(), rawDf, q.x, q.y, q.t, gc, ox, oy, radius)
    Oracle.assertEquivalent(sparkDf,
      s"""SELECT DISTINCT traj_id FROM pts
          WHERE CAST(t AS INT) = ${q.t}
            AND floor((CAST(x AS DOUBLE) - ($ox)) / $gc) = $qx
            AND floor((CAST(y AS DOUBLE) - ($oy)) / $gc) = $qy""",
      "pts" -> rawDf)
  }

  test("summary rows carry valid partition and codeword indices") {
    val rows = summary.collect()
    assert(rows.forall(_.b >= 0))
    assert(rows.forall(_.cqc_len > 0)) // CQC enabled in params
    assert(rows.map(_.group).distinct.length <= 4)
  }
}
