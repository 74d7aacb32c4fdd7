package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval._

/** Table 9: disk-based index performance — TPI vs per-timestamp PI vs
  * TrajStore over the simulated store of 8 KiB pages. */
class Table9Bench extends AnyFunSuite {

  test("Table 9 — disk-based index performance") {
    for ((data, cfg, _) <- BenchData.datasets) {
      val rows = Table9.run(data, cfg, nQueries = 2000)
      println(Table9.render(rows, data.name))
      val label = if (data.name.startsWith("porto")) "Porto" else "Geolife"
      println(BenchData.paperBlock(s"Table 9, $label (size MB / IOs / response s / build s)",
        if (label == "Porto") Seq(
          "TPI 857.4 / 1225 / 24 / 465",
          "PI 870.5 / 338 / 18 / 1572",
          "TrajStore 857.4 / 13803 / 147 / 4244")
        else Seq(
          "TPI 235.1 / 2230 / 285 / 2848",
          "PI 271.9 / 301 / 121 / 32009",
          "TrajStore 233.5 / 35233 / 378 / 24372")))

      def r(m: String) = rows.find(_.method == m).get
      // The paper's ordering: PI touches the fewest pages, TrajStore by far
      // the most (a spatial cell spans the whole time range); TPI builds
      // much faster than per-timestamp PI.
      assert(r("PI").ios <= r("TPI").ios)
      assert(r("TPI").ios < r("TrajStore").ios)
      assert(r("TPI").buildMs < r("PI").buildMs)
      assert(r("TPI").respMs <= r("TrajStore").respMs)
      assert(rows.forall(_.sizeMB > 0))
    }
  }
}
