package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** The pruned k-means sweep, the array-backed incremental partitioner, its
  * grid merge search and the codebook's primitive cell table must
  * reproduce the reference implementations bit for bit, on inputs built to
  * provoke ties: duplicates, lattice points, near-identical points and
  * points on cell edges, in 1–3 dimensions, with q from 1 to n. */
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

  /** One centroid coordinate near the merge grid's edges: a multiple of
    * ε_p or of the grid's side w (one ulp either way too), or a continuous
    * value, all around `offset`. */
  private def edgeCoord(epsP: Double, offset: Double): Gen[Double] = {
    val w = epsP * (1 + 1.0 / 1024)
    Gen.frequency(
      3 -> Gen.choose(-4, 4).map(j => offset + j * epsP),
      3 -> Gen.choose(-4, 4).map(j => offset + j * w),
      1 -> Gen.choose(-4, 4).map(j => math.nextUp(offset + j * w)),
      1 -> Gen.choose(-4, 4).map(j => math.nextDown(offset + j * w)),
      3 -> Gen.choose(-4.0, 4.0).map(u => offset + u * epsP))
  }

  /** Rebuilt centroids for the merge step. Each is fresh (`edgeCoord`s) or
    * made from an earlier one: exactly ε_p away along one axis as computed,
    * one ulp nearer or farther, on a 3-4-5 diagonal at ε_p, or a duplicate.
    * Offsets reach 10¹⁵ (large coordinates) and 10³⁰, which is beyond the
    * grid's 2⁴⁰ cells, so the exhaustive search runs too. */
  private val mergeCase: Gen[(Array[Array[Double]], Double)] = for {
    dim <- Gen.choose(1, 3)
    epsP <- Gen.oneOf(0.1, 0.3, 0.5, 1.0, 0.25, 1e-3)
    offset <- Gen.frequency(6 -> Gen.const(0.0), 2 -> Gen.oneOf(-8.61, 123456.789, -1e6),
                            1 -> Gen.oneOf(1e15, -3e14), 1 -> Gen.const(1e30))
    n <- Gen.choose(1, 40)
    steps <- Gen.listOfN(n, Gen.zip(Gen.choose(0, 7), Gen.choose(0, 1000), Gen.choose(0, 2),
                                    Gen.listOfN(dim, edgeCoord(epsP, offset))))
  } yield {
    val cents = mutable.ArrayBuffer.empty[Array[Double]]
    for ((variant, anchor, axis, fresh) <- steps) {
      val c = if (cents.isEmpty || variant == 0) fresh.toArray else cents(anchor % cents.length).clone
      val ax = axis % dim
      if (cents.nonEmpty) variant match {
        case 1 => c(ax) += epsP
        case 2 => c(ax) -= epsP
        case 3 => c(ax) = math.nextUp(c(ax) + epsP)
        case 4 => c(ax) = math.nextDown(c(ax) + epsP)
        case 5 => c(ax) = math.nextDown(c(ax) - epsP)
        case 6 if dim >= 2 => c(ax) += 0.6 * epsP; c((ax + 1) % dim) += 0.8 * epsP
        case _ =>
      }
      cents += c
    }
    (cents.toArray, epsP)
  }

  test("the grid merge search picks the partners of the coordinate-0 sweep") {
    check(Prop.forAllNoShrink(mergeCase) { case (cents, epsP) =>
      java.util.Arrays.equals(IncrementalPartitioner.mergePartners(cents, cents.length, epsP),
                              ReferenceMergeSweep.partners(cents, cents.length, epsP))
    }, tests = 2000)
  }

  /** Codebook operations: 0 quantize, 1 add, 2 nearestWithin, on points of
    * an eps/2 lattice (cell edges and equal-distance ties), one ulp off it,
    * or continuous, around an offset. */
  private val codebookCase: Gen[(Double, List[(Int, Pt)])] = for {
    eps <- Gen.oneOf(0.1, 0.5, 1.0, 1e-3)
    offset <- Gen.oneOf(0.0, 0.0, -8.61, 116.35, 1e6)
    n <- Gen.choose(1, 120)
    coord = Gen.frequency(
      4 -> Gen.choose(-6, 6).map(j => offset + j * eps / 2),
      1 -> Gen.choose(-6, 6).map(j => math.nextUp(offset + j * eps / 2)),
      2 -> Gen.choose(-3.0, 3.0).map(u => offset + u * eps))
    ops <- Gen.listOfN(n, Gen.zip(Gen.frequency(5 -> Gen.const(0), 1 -> Gen.const(1), 2 -> Gen.const(2)),
                                  Gen.zip(coord, coord).map { case (x, y) => Pt(x, y) }))
  } yield (eps, ops)

  test("the codebook's cell table answers as the boxed-map codebook") {
    check(Prop.forAllNoShrink(codebookCase) { case (eps, ops) =>
      val ref = new ReferenceCodebook(eps)
      val cb = new ErrorBoundedCodebook(eps)
      ops.forall {
        case (0, p) => ref.quantize(p) == cb.quantize(p)
        case (1, p) => ref.add(p) == cb.add(p)
        case (_, p) => ref.nearestWithin(p) == cb.nearestWithin(p)
      } && ref.codewords == cb.codewords
    }, tests = 1000)
  }
}
