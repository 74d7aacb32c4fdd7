package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TrajGen
import repro.eval.EvalConfig
import scala.util.Random

class PartitionerSpec extends AnyFunSuite {

  private def vec(p: Pt): Array[Double] = Array(p.x, p.y)

  test("single tight cluster stays one partition") {
    val rng = new Random(1)
    val vecs = Array.fill(50)(vec(Pt(rng.nextGaussian() * 0.01, rng.nextGaussian() * 0.01)))
    val r = Partitioner.partitionByThreshold(vecs, epsP = 1.0)
    assert(r.assign.distinct.length == 1)
    assert(r.rounds == 1)
  }

  test("empty input") {
    val r = Partitioner.partitionByThreshold(Array.empty, 0.1)
    assert(r.assign.isEmpty && r.centroids.isEmpty)
  }

  // Eq. 7/8: after partitioning, every member is within epsP of its centroid.
  for (seed <- 0 until 8)
    test(s"threshold constraint is satisfied (seed=$seed)") {
      val rng = new Random(seed)
      val vecs = Array.fill(150)(vec(Pt(rng.nextDouble() * 4, rng.nextDouble() * 4)))
      val epsP = 0.8
      val r = Partitioner.partitionByThreshold(vecs, epsP)
      assert(Partitioner.maxDeviation(vecs, r.assign, r.centroids) <= epsP + 1e-9)
    }

  test("q grows when epsP shrinks") {
    val rng = new Random(9)
    val vecs = Array.fill(200)(vec(Pt(rng.nextDouble() * 10, rng.nextDouble() * 10)))
    val loose = Partitioner.partitionByThreshold(vecs, 8.0).assign.distinct.length
    val tight = Partitioner.partitionByThreshold(vecs, 1.0).assign.distinct.length
    assert(tight > loose)
  }

  test("incremental: stable points keep their partitions") {
    val ip = new IncrementalPartitioner(1.0)
    val ids = Array(0, 1, 2, 3)
    val vecs = Array(Array(0.0, 0.0), Array(0.1, 0.0), Array(5.0, 5.0), Array(5.1, 5.0))
    val a1 = ip.update(ids, vecs)
    val a2 = ip.update(ids, vecs) // same positions
    assert(a1.toSeq == a2.toSeq)
    assert(a1(0) == a1(1) && a1(2) == a1(3) && a1(0) != a1(2))
  }

  test("incremental: a drifting point forces a split") {
    val ip = new IncrementalPartitioner(0.5)
    val ids = Array(0, 1, 2)
    val t1 = Array(Array(0.0, 0.0), Array(0.1, 0.1), Array(0.2, 0.0))
    ip.update(ids, t1)
    assert(ip.numPartitions == 1)
    // point 2 flies far away: its old partition now violates epsP
    val t2 = Array(Array(0.0, 0.0), Array(0.1, 0.1), Array(9.0, 9.0))
    val a2 = ip.update(ids, t2)
    assert(a2(0) == a2(1) && a2(0) != a2(2))
    assert(ip.splits > 0)
    assert(ip.numPartitions == 2)
  }

  test("incremental: converging partitions merge (at most once per update)") {
    val ip = new IncrementalPartitioner(1.0)
    val ids = Array(0, 1)
    ip.update(ids, Array(Array(0.0, 0.0), Array(8.0, 8.0)))
    assert(ip.numPartitions == 2)
    val a = ip.update(ids, Array(Array(4.0, 4.0), Array(4.2, 4.2))) // both move together
    assert(a(0) == a(1))
    assert(ip.merges >= 1)
    assert(ip.numPartitions == 1)
  }

  test("incremental: new trajectory ids join nearest partition") {
    val ip = new IncrementalPartitioner(1.0)
    ip.update(Array(0, 1), Array(Array(0.0, 0.0), Array(9.0, 9.0)))
    val a = ip.update(Array(0, 1, 2), Array(Array(0.0, 0.0), Array(9.0, 9.0), Array(0.3, 0.1)))
    assert(a(2) == a(0))
  }

  for (seed <- 50 until 56)
    test(s"incremental satisfies epsP after every update (seed=$seed)") {
      val rng = new Random(seed)
      val epsP = 0.7
      val ip = new IncrementalPartitioner(epsP)
      var pts = Array.fill(60)(Pt(rng.nextDouble() * 5, rng.nextDouble() * 5))
      val ids = pts.indices.toArray
      for (_ <- 0 until 5) {
        pts = pts.map(p => Pt(p.x + rng.nextGaussian() * 0.2, p.y + rng.nextGaussian() * 0.2))
        val vecs = pts.map(vec)
        val assign = ip.update(ids, vecs)
        // recompute per-partition centroid and check the constraint the
        // partitioner enforces at update time (splits guarantee <= epsP;
        // a single merge may relax it to ~2*epsP, the paper's trade-off)
        val byPart = ids.indices.groupBy(assign(_))
        for ((_, idxs) <- byPart) {
          val cx = idxs.map(i => vecs(i)(0)).sum / idxs.size
          val cy = idxs.map(i => vecs(i)(1)).sum / idxs.size
          for (i <- idxs) {
            val d = math.hypot(vecs(i)(0) - cx, vecs(i)(1) - cy)
            assert(d <= 2 * epsP + 1e-9, s"deviation $d")
          }
        }
      }
    }

  test("partitionByThreshold rejects NaN and infinite vectors") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity)) {
      val vecs = Array(Array(0.0, 0.0), Array(bad, 1.0))
      intercept[IllegalArgumentException](Partitioner.partitionByThreshold(vecs, 0.5))
    }
  }

  test("partitionByThreshold rejects a < 1 and maxRounds < 1") {
    val vecs = Array(Array(0.0), Array(1.0))
    for (a <- Seq(0, -4, Int.MinValue))
      intercept[IllegalArgumentException](Partitioner.partitionByThreshold(vecs, 0.1, a = a))
    for (m <- Seq(0, -1, Int.MinValue))
      intercept[IllegalArgumentException](Partitioner.partitionByThreshold(vecs, 0.1, maxRounds = m))
    // also for empty input, which needs no round
    intercept[IllegalArgumentException](Partitioner.partitionByThreshold(Array.empty, 0.1, a = 0))
    intercept[IllegalArgumentException](Partitioner.partitionByThreshold(Array.empty, 0.1, maxRounds = 0))
  }

  // 400 points 0.25 apart need far more than the 1 + 4·63 = 253 partitions
  // the round cap allows at epsP = 0.05.
  private val line = Array.tabulate(400)(i => Array(i * 0.25))

  test("partitionByThreshold flags a result stopped at the round cap") {
    val capped = Partitioner.partitionByThreshold(line, 0.05)
    assert(capped.rounds == 64 && capped.capped)
    assert(capped.centroids.length == 253)
    assert(Partitioner.maxDeviation(line, capped.assign, capped.centroids) > 0.05)
    val met = Partitioner.partitionByThreshold(line, 30.0)
    assert(!met.capped && Partitioner.maxDeviation(line, met.assign, met.centroids) <= 30.0)
  }

  test("partitionByThreshold's speculative rounds run on daemon threads") {
    Partitioner.partitionByThreshold(line, 0.05) // 64 rounds on 400 vectors
    val pool = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread])
      .filter(t => t.isInstanceOf[java.util.concurrent.ForkJoinWorkerThread] && !t.getName.contains("commonPool"))
    assert(Runtime.getRuntime.availableProcessors == 1 || pool.nonEmpty)
    assert(pool.forall(_.isDaemon), pool.filterNot(_.isDaemon).map(_.getName).mkString(", "))
  }

  test("incremental: a re-partition stopped at the round cap is counted") {
    val ip = new IncrementalPartitioner(0.05)
    val ids = line.indices.toArray
    ip.update(ids, Array.fill(line.length)(Array(0.0)))
    assert(ip.cappedSplits == 0 && ip.splits == 0)
    val a = ip.update(ids, line)
    assert(ip.cappedSplits == 1)
    assert(ip.splits == a.distinct.length + ip.merges - 1)
  }

  // The autocorrelation features of Porto-like seed 1010 (the first dataset
  // of the benchmark's pool for seed 1) at t = 5, the first step with
  // non-zero AR features: one partition of 1,600 cannot be split within
  // epsP in 64 rounds. Lemma 1 assumes the constraint always holds.
  test("incremental: Porto-like seed 1010 reaches the round cap at t = 5") {
    val data = TrajGen.portoLike(1600, 50, 1010)
    val params = EvalConfig.porto.params(PartitionMode.Autocorr, useCqc = true)
    val ip = new IncrementalPartitioner(params.epsP, params.seed)
    val ids = Array.range(0, data.numTrajs)
    val xs = data.trajs.map(_.map(_.x)); val ys = data.trajs.map(_.map(_.y))
    val eq = new Predictor.NormalEquations(params.k)
    for (t <- 1 to 5) {
      val feats = ids.map(i => Predictor.arFeatures(eq, xs(i), ys(i), 0, t - 1, PredictiveFrontend.ArWindow))
      ip.update(ids, feats)
      assert(ip.cappedSplits == (if (t < 5) 0 else 1), s"t=$t")
    }
  }
}
