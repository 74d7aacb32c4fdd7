package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The pruned k-means sweep and the array-backed incremental partitioner
  * must reproduce the full-scan reference implementations bit for bit, on
  * inputs built to provoke ties: duplicates, lattice points and
  * near-identical points, in 1–3 dimensions, with q from 1 to n. */
class PrunedEquivalenceSpec extends AnyFunSuite {

  private def check(p: Prop, tests: Int = 300): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20201017L)
    val r = Test.check(params, p)
    assert(r.passed, Pretty.pretty(r))
  }

  private def bitEqual(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  /** One coordinate: a lattice value (ties), a value one ulp away from a
    * lattice value (near-ties), or a continuous one. */
  private val coord: Gen[Double] = Gen.frequency(
    4 -> Gen.choose(0, 4).map(_ * 0.5),
    2 -> Gen.choose(0, 4).map(i => math.nextUp(i * 0.5)),
    3 -> Gen.choose(-2.0, 2.0))

  private def vecsGen(dim: Int, n: Int): Gen[Array[Array[Double]]] =
    Gen.frequency(
      3 -> Gen.listOfN(n, Gen.listOfN(dim, coord).map(_.toArray)),
      // heavy duplication: n draws from a handful of distinct vectors
      1 -> Gen.listOfN(3, Gen.listOfN(dim, coord).map(_.toArray))
             .flatMap(base => Gen.listOfN(n, Gen.oneOf(base)).map(_.map(_.clone))))
      .map(_.toArray)

  private val clusterCase: Gen[(Array[Array[Double]], Int, Int, Long)] = for {
    dim <- Gen.choose(1, 3)
    n <- Gen.choose(1, 60)
    vecs <- vecsGen(dim, n)
    k <- Gen.choose(1, n)
    iters <- Gen.choose(1, 20)
    seed <- Gen.choose(0L, 1000L)
  } yield (vecs, k, iters, seed)

  test("KMeans.cluster equals the full-scan Lloyd loop bit for bit") {
    check(Prop.forAllNoShrink(clusterCase) { case (vecs, k, iters, seed) =>
      val (c0, a0) = ReferenceKMeans.cluster(vecs, k, iters, seed)
      val (c1, a1) = KMeans.cluster(vecs, k, iters, seed)
      java.util.Arrays.equals(a0, a1) && bitEqual(c0, c1)
    }, tests = 1000)
  }

  test("partitionByThreshold equals the reference bit for bit") {
    val gen = for {
      dim <- Gen.choose(1, 3)
      n <- Gen.choose(1, 60)
      vecs <- vecsGen(dim, n)
      epsP <- Gen.oneOf(0.0, 0.1, 0.3, 0.5, 1.0)
      a <- Gen.choose(1, 5)
      maxRounds <- Gen.choose(1, 12)
    } yield (vecs, epsP, a, maxRounds)
    check(Prop.forAllNoShrink(gen) { case (vecs, epsP, a, maxRounds) =>
      val r0 = ReferencePartitioner.partitionByThreshold(vecs, epsP, a, maxRounds)
      val r1 = Partitioner.partitionByThreshold(vecs, epsP, a, maxRounds)
      java.util.Arrays.equals(r0.assign, r1.assign) && bitEqual(r0.centroids, r1.centroids) &&
        r0.rounds == r1.rounds &&
        r1.capped == (Partitioner.maxDeviation(vecs, r1.assign, r1.centroids) > epsP)
    })
  }

  /** Several updates over drifting vectors. `turnover` lets trajectories
    * leave and join between updates; it uses continuous coordinates, since
    * the reference breaks exact distance ties between partitions in hash-map
    * order when a new trajectory picks its nearest partition. */
  private def updatesGen(turnover: Boolean): Gen[(Int, Double, Seq[(Array[Int], Array[Array[Double]])])] = for {
    dim <- Gen.choose(1, 3)
    n <- Gen.choose(1, 50)
    epsP <- Gen.oneOf(0.1, 0.3, 0.5, 1.0)
    steps <- Gen.choose(1, 6)
    value = if (turnover) Gen.choose(-2.0, 2.0) else coord
    frames <- Gen.listOfN(steps, for {
      keep <- if (turnover) Gen.listOfN(n, Gen.prob(0.8)) else Gen.const(List.fill(n)(true))
      vs <- Gen.listOfN(n, Gen.listOfN(dim, value).map(_.toArray))
    } yield {
      val ids = (0 until n).filter(keep).toArray
      (ids, ids.map(vs(_)))
    })
  } yield (dim, epsP, frames)

  private def sameUpdates(epsP: Double, frames: Seq[(Array[Int], Array[Array[Double]])]): Boolean = {
    val ref = new ReferenceIncrementalPartitioner(epsP)
    val ip = new IncrementalPartitioner(epsP)
    frames.forall { case (ids, vecs) =>
      java.util.Arrays.equals(ref.update(ids, vecs), ip.update(ids, vecs)) &&
        ref.splits == ip.splits && ref.merges == ip.merges && ref.numPartitions == ip.numPartitions
    }
  }

  test("IncrementalPartitioner.update equals the reference over several updates") {
    check(Prop.forAllNoShrink(updatesGen(turnover = false)) { case (_, epsP, frames) => sameUpdates(epsP, frames) })
  }

  test("IncrementalPartitioner.update equals the reference with trajectories leaving and joining") {
    check(Prop.forAllNoShrink(updatesGen(turnover = true)) { case (_, epsP, frames) => sameUpdates(epsP, frames) })
  }
}
