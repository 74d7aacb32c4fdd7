package repro.query

import repro.SparkSpec
import repro.Oracle
import repro.core._
import repro.data.{TrajDataset, TrajGen}
import scala.util.Random
import java.lang.Math.{nextDown, nextUp}

class QueriesSpec extends SparkSpec {

  private lazy val data = TrajGen.portoLike(60, 30, seed = 31)
  private val gc = Geo.toDegrees(100.0)

  /** A reconstruction that moves every raw point by `f`, in (id, t) order.
    * The identity reconstruction is `data` itself. */
  private def mapped(f: Pt => Pt): TrajDataset = data.copy(name = "mapped", trajs = data.trajs.map(_.map(f)))

  test("MAE of the identity reconstruction is zero") {
    assert(Queries.maeMeters(data, data) == 0.0)
  }

  test("MAE of a shifted reconstruction equals the shift") {
    val shifted = mapped(p => Pt(p.x + Geo.toDegrees(50.0), p.y))
    assert(math.abs(Queries.maeMeters(shifted, data) - 50.0) < 1e-6)
  }

  test("ground truth contains the queried trajectory itself") {
    for (q <- Queries.sampleQueries(data, 50, seed = 1)) {
      val truth = Queries.groundTruth(data, q, gc)
      assert(truth.nonEmpty)
    }
  }

  test("approxByCell on identity reconstruction equals ground truth") {
    for (q <- Queries.sampleQueries(data, 50, seed = 2)) {
      assert(Queries.groundTruth(data.copy(name = "identity"), q, gc) == Queries.groundTruth(data, q, gc))
    }
  }

  test("precision/recall of a perfect answer is (1,1)") {
    assert(Queries.precisionRecall(Set(1, 2), Set(1, 2)) == ((1.0, 1.0)))
    assert(Queries.precisionRecall(Set.empty, Set.empty) == ((1.0, 1.0)))
  }

  test("precision/recall of partial answers") {
    val (p, r) = Queries.precisionRecall(Set(1, 2, 3, 4), Set(1, 2))
    assert(p == 0.5 && r == 1.0)
    val (p2, r2) = Queries.precisionRecall(Set(1), Set(1, 2))
    assert(p2 == 1.0 && r2 == 0.5)
  }

  test("local search + refine recovers full recall on bounded perturbations") {
    val rng = new Random(3)
    val radius = math.sqrt(2.0) / 2.0 * Geo.toDegrees(50.0)
    // perturb every reconstruction within the CQC bound
    val perturbed = mapped { p =>
      val ang = rng.nextDouble() * 2 * math.Pi
      val rad = rng.nextDouble() * radius
      Pt(p.x + rad * math.cos(ang), p.y + rad * math.sin(ang))
    }
    for (q <- Queries.sampleQueries(data, 80, seed = 4)) {
      val truth = Queries.groundTruth(data, q, gc)
      val cands = Queries.localSearchCandidates(perturbed, q, gc, radius)
      assert(truth.subsetOf(cands), s"missed ${truth -- cands}")
      val refined = Queries.refineWithRaw(cands, data, q, gc)
      val (p, r) = Queries.precisionRecall(refined, truth)
      assert(p == 1.0 && r == 1.0)
    }
  }

  test("local search keeps the half-open candidate box at each of its edges") {
    val radius = math.sqrt(2.0) / 2.0 * Geo.toDegrees(50.0)
    val q = Queries.sampleQueries(data, 1, seed = 10).head
    val ox = data.bbox.x0; val oy = data.bbox.y0
    val cx = math.floor((q.x - ox) / gc).toLong
    val cy = math.floor((q.y - oy) / gc).toLong
    val x0 = ox + cx * gc - radius; val x1 = ox + (cx + 1) * gc + radius
    val y0 = oy + cy * gc - radius; val y1 = oy + (cy + 1) * gc + radius
    val xm = (x0 + x1) / 2; val ym = (y0 + y1) / 2
    // (refined point, inside the box): lower edges belong to the box, upper edges do not
    val probes = Seq(
      Pt(x0, ym) -> true, Pt(nextDown(x0), ym) -> false, Pt(nextUp(x0), ym) -> true,
      Pt(x1, ym) -> false, Pt(nextDown(x1), ym) -> true, Pt(nextUp(x1), ym) -> false,
      Pt(xm, y0) -> true, Pt(xm, nextDown(y0)) -> false, Pt(xm, nextUp(y0)) -> true,
      Pt(xm, y1) -> false, Pt(xm, nextDown(y1)) -> true, Pt(xm, nextUp(y1)) -> false)
    val inside = probes.indices.filter(i => probes(i)._2).toSet
    // the map form and the dataset form (trajectory i at probe i at every t)
    val recon = probes.indices.map(i => (i, q.t) -> probes(i)._1).toMap
    assert(Queries.localSearchCandidates(recon, data, q, gc, radius) == inside)
    val reconData = TrajDataset("probes", probes.map(p => Array.fill(q.t)(p._1)).toIndexedSeq, data.bbox)
    assert(Queries.localSearchCandidates(reconData, q, gc, radius) == inside)
  }

  test("groundTruth, approxByCell and refineWithRaw place points on cell edges by floor((p - origin) / g_c)") {
    val q = Queries.sampleQueries(data, 1, seed = 11).head.copy(t = 1)
    val ox = data.bbox.x0; val oy = data.bbox.y0
    def cell(p: Pt) = (math.floor((p.x - ox) / gc).toLong, math.floor((p.y - oy) / gc).toLong)
    val (cx, cy) = cell(Pt(q.x, q.y))
    // the query cell's edges, exactly and one ulp to either side
    def around(edge: Double) = Seq(nextDown(edge), edge, nextUp(edge))
    val xs = Seq(cx, cx + 1).flatMap(c => around(ox + c * gc))
    val ys = Seq(cy, cy + 1).flatMap(c => around(oy + c * gc))
    val pts = for (x <- xs; y <- ys) yield Pt(x, y)
    // trajectory i sits at pts(i) at t = 1, on the same grid as `data`
    val edges = TrajDataset("cell-edges", pts.map(p => Array(p)).toIndexedSeq, data.bbox)
    val expected = pts.indices.filter(i => cell(pts(i)) == ((cx, cy))).toSet
    assert(expected.nonEmpty && expected.size < pts.size)
    assert(Queries.groundTruth(edges, q, gc) == expected)
    assert(Queries.refineWithRaw(pts.indices.toSet, edges, q, gc) == expected)
  }

  test("without local search, bounded perturbations lose recall at cell borders") {
    val rng = new Random(5)
    val radius = Geo.toDegrees(60.0)
    val perturbed = mapped { p =>
      val ang = rng.nextDouble() * 2 * math.Pi
      Pt(p.x + radius * math.cos(ang), p.y + radius * math.sin(ang))
    }
    val recalls = Queries.sampleQueries(data, 100, seed = 6).map { q =>
      Queries.precisionRecall(Queries.groundTruth(perturbed, q, gc),
        Queries.groundTruth(data, q, gc))._2
    }
    assert(recalls.sum / recalls.size < 1.0)
  }

  test("tpqMae of identity is zero, of shifted is the shift") {
    assert(Queries.tpqMae(data, data, 20, 10, seed = 7) == 0.0)
    val shifted = mapped(p => Pt(p.x, p.y + Geo.toDegrees(30.0)))
    assert(math.abs(Queries.tpqMae(shifted, data, 20, 10, seed = 7) - 30.0) < 1e-6)
  }

  test("visitedRatio grows with radius and is within [0,1]") {
    val qs = Queries.sampleQueries(data, 30, seed = 8)
    val small = Queries.visitedRatio(data, qs, Geo.toDegrees(10.0))
    val large = Queries.visitedRatio(data, qs, Geo.toDegrees(2000.0))
    assert(small >= 0.0 && large <= 1.0)
    assert(small <= large)
    assert(small > 0.0) // the queried trajectory itself is within any radius
  }

  test("maxDeviationDeg of identity is zero") {
    assert(Queries.maxDeviationDeg(data, data) == 0.0)
  }

  // --- Oracle-checked DataFrame ground truth: the STRQ cell predicate is
  // the same in Spark SQL and DuckDB (guards the query semantics the
  // distributed layer relies on). ---
  test("STRQ ground truth via DataFrame matches DuckDB oracle") {
    import spark.implicits._
    val small = TrajGen.portoLike(40, 10, seed = 32)
    val rawDf = small.allPoints.map { case (id, t, p) => (id, t, p.x, p.y) }
      .toSeq.toDF("traj_id", "t", "x", "y")
    val q = Queries.sampleQueries(small, 1, seed = 9).head
    val ox = small.bbox.x0; val oy = small.bbox.y0
    val qx = math.floor((q.x - ox) / gc).toLong
    val qy = math.floor((q.y - oy) / gc).toLong
    val sparkDf = rawDf.filter(
      org.apache.spark.sql.functions.col("t") === q.t &&
      org.apache.spark.sql.functions.floor((org.apache.spark.sql.functions.col("x") - ox) / gc) === qx &&
      org.apache.spark.sql.functions.floor((org.apache.spark.sql.functions.col("y") - oy) / gc) === qy)
      .select(org.apache.spark.sql.functions.col("traj_id"))
    Oracle.assertEquivalent(sparkDf,
      s"""SELECT traj_id FROM pts
          WHERE CAST(t AS INT) = ${q.t}
            AND floor((CAST(x AS DOUBLE) - ($ox)) / $gc) = $qx
            AND floor((CAST(y AS DOUBLE) - ($oy)) / $gc) = $qy""",
      "pts" -> rawDf)
    // and the in-memory ground truth agrees with the DataFrame
    val dfIds = sparkDf.collect().map(_.getInt(0)).toSet
    assert(dfIds == Queries.groundTruth(small, q, gc))
  }
}
