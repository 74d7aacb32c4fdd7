package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.TrajGen
import repro.spark.SparkPpq

/** spark-submit entrypoint: run exact spatio-temporal range queries
  * against the distributed PPQ summary.
  *
  * Usage: StrqJob [numQueries]
  */
object StrqJob {
  def main(args: Array[String]): Unit = {
    val nQ = args.lift(0).map(_.toInt).getOrElse(20)
    val spark = SparkSession.builder().appName("ppq-strq")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    import spark.implicits._
    try {
      val data = TrajGen.portoLike(150, 60)
      val raw = data.allPoints.map { case (id, t, p) => SparkPpq.PointRow(id, t, p.x, p.y) }.toSeq.toDF()
      val params = PpqParams()
      val gc = Geo.toDegrees(100.0)
      val radius = math.sqrt(2.0) / 2.0 * params.gs.get
      val summary = SparkPpq.buildSummary(spark, raw, params).toDF().cache()
      val rng = new scala.util.Random(5)
      var exactHits = 0L
      for (_ <- 1 to nQ) {
        val id = rng.nextInt(data.numTrajs)
        val t = 1 + rng.nextInt(data.len)
        val p = data.point(id, t)
        val exact = SparkPpq.strqExact(summary, raw, p.x, p.y, t, gc, data.bbox.x0, data.bbox.y0, radius)
          .as[Int].collect().sorted
        exactHits += exact.length
        println(f"STRQ(x=${p.x}%.4f, y=${p.y}%.4f, t=$t%3d) -> ${exact.length}%3d ids: ${exact.take(8).mkString(",")}")
      }
      println(s"total exact results over $nQ queries: $exactHits")
    } finally spark.stop()
  }
}
