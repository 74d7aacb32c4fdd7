package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** The pruned k-means sweep, the array-backed incremental partitioner, its
  * grid merge search, the codebook's primitive cell table and the reused
  * normal-equation buffers must reproduce the reference implementations
  * bit for bit, on inputs built to provoke ties: duplicates, lattice
  * points, near-identical points and points on cell edges, in 1–3
  * dimensions, with q from 1 to n. */
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

  private def samePartition(vecs: Array[Array[Double]], epsP: Double, a: Int, maxRounds: Int,
                            seed: Long = 11): Boolean = {
    val r0 = ReferencePartitioner.partitionByThreshold(vecs, epsP, a, maxRounds, seed)
    val r1 = Partitioner.partitionByThreshold(vecs, epsP, a, maxRounds, seed)
    java.util.Arrays.equals(r0.assign, r1.assign) && bitEqual(r0.centroids, r1.centroids) &&
      r0.rounds == r1.rounds &&
      r1.capped == (Partitioner.maxDeviation(vecs, r1.assign, r1.centroids) > epsP)
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
    check(Prop.forAllNoShrink(gen) { case (vecs, epsP, a, maxRounds) => samePartition(vecs, epsP, a, maxRounds) })
  }

  /** Inputs of 256 or more vectors, whose rounds after the fourth run ahead
    * on the shared pool when there is more than one processor: calls that
    * stop early (loose ε_p), stop at the round cap (ε_p = 0, or 0.1 on
    * continuous points), stop when q reaches n (a large step, or duplicates
    * that reach zero deviation), or run one round (`maxRounds` = 1). The
    * test checks that each kind past round 4 occurs. */
  private val largeCase: Gen[(Array[Array[Double]], Double, Int, Int)] = for {
    dim <- Gen.choose(1, 3)
    n <- Gen.choose(256, 700)
    vecs <- vecsGen(dim, n)
    epsP <- Gen.oneOf(0.0, 0.1, 0.5, 1.0, 2.0)
    a <- Gen.frequency(4 -> Gen.choose(1, 5), 2 -> Gen.oneOf(64, 150, 255, 400))
    maxRounds <- Gen.frequency(1 -> Gen.const(1), 6 -> Gen.choose(2, 12),
                               1 -> (if (a >= 64) Gen.const(64) else Gen.choose(2, 12)))
  } yield (vecs, epsP, a, maxRounds)

  test("partitionByThreshold equals the reference bit for bit on 256 or more vectors") {
    val stops = mutable.Set.empty[String]
    check(Prop.forAllNoShrink(largeCase) { case (vecs, epsP, a, maxRounds) =>
      val r = Partitioner.partitionByThreshold(vecs, epsP, a, maxRounds)
      stops += (if (maxRounds == 1) "one round"
                else if (r.rounds <= 4) "by round 4"
                else if (math.min(vecs.length.toLong, 1L + a.toLong * (r.rounds - 1)) == vecs.length) "q = n"
                else if (r.capped) "capped" else "early")
      samePartition(vecs, epsP, a, maxRounds)
    }, tests = 100)
    assert(stops == Set("one round", "by round 4", "q = n", "capped", "early"))
  }

  test("partitionByThreshold called from several threads at once equals the reference") {
    val rng = new scala.util.Random(5)
    def blobs(n: Int, side: Int): Array[Array[Double]] =
      Array.fill(n)(Array(rng.nextInt(side) + rng.nextGaussian() * 0.05, rng.nextInt(side) + rng.nextGaussian() * 0.05))
    val (wide, nine) = (blobs(1600, 40), blobs(1600, 3))
    // capped at 64 rounds, stops early, q reaches n at round 7, one round,
    // stops at maxRounds = 12
    val cases = Seq((wide, 0.1, 4, 64), (nine, 0.5, 2, 64), (wide.take(300), 0.0, 50, 64),
                    (nine.take(500), 0.1, 4, 1), (wide.take(700), 1.0, 2, 12))
    val expected = cases.map { case (v, e, a, m) => ReferencePartitioner.partitionByThreshold(v, e, a, m, seed = 3) }
    val rounds = expected.map(_.rounds)
    assert(rounds(0) == 64 && rounds(1) > 4 && rounds(1) < 64 && rounds(2) == 7 && rounds(3) == 1, rounds)
    val threads = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val runs = for (t <- 0 until 8; c <- cases.indices) yield (t, (c + t) % cases.length)
      val futures = runs.map { case (_, c) =>
        threads.submit(new java.util.concurrent.Callable[Partitioner.Result] {
          def call(): Partitioner.Result = {
            val (v, e, a, m) = cases(c)
            Partitioner.partitionByThreshold(v, e, a, m, seed = 3)
          }
        })
      }
      for (((_, c), f) <- runs.zip(futures)) {
        val (r0, r1) = (expected(c), f.get)
        assert(java.util.Arrays.equals(r0.assign, r1.assign) && bitEqual(r0.centroids, r1.centroids) &&
                 r0.rounds == r1.rounds, s"case $c")
      }
    } finally threads.shutdown()
  }

  test("partitionByThreshold throws KMeans's IllegalArgumentException for a non-finite vector in a large input") {
    val rng = new scala.util.Random(6)
    for (bad <- Seq(Double.NaN, Double.NegativeInfinity)) {
      val vecs = Array.fill(1000)(Array(rng.nextDouble(), rng.nextDouble()))
      vecs(700)(1) = bad
      val want = intercept[IllegalArgumentException](KMeans.cluster(vecs, 1, seed = 11)).getMessage
      val got = intercept[IllegalArgumentException](Partitioner.partitionByThreshold(vecs, 0.01)).getMessage
      assert(got == want && want.startsWith("vector 700 "))
    }
  }

  /** Vectors for groups of 2–5 members that break ε_p: each is a fresh
    * draw from `coord`, a copy of an earlier one (an exact duplicate),
    * a copy with one coordinate set to −0.0 or +0.0, or a copy moved by
    * 1e-200 along one axis, whose squared distance to it underflows to 0. */
  private def smallGroupVecs(dim: Int, n: Int): Gen[Array[Array[Double]]] =
    Gen.listOfN(n, Gen.zip(Gen.choose(0, 4), Gen.choose(0, 1000), Gen.choose(0, dim - 1),
                           Gen.listOfN(dim, coord))).map { draws =>
      val vs = mutable.ArrayBuffer.empty[Array[Double]]
      for ((variant, anchor, axis, fresh) <- draws) {
        val v = if (vs.isEmpty || variant == 0) fresh.toArray else vs(anchor % vs.length).clone
        if (vs.nonEmpty) variant match {
          case 2 => v(axis) = -0.0
          case 3 => v(axis) = 0.0
          case 4 => v(axis) += 1e-200
          case _ =>
        }
        vs += v
      }
      vs.toArray
    }

  /** Several updates over drifting vectors. `turnover` lets trajectories
    * leave and join between updates; it uses continuous coordinates, since
    * the reference breaks exact distance ties between partitions in hash-map
    * order when a new trajectory picks its nearest partition. `small` keeps
    * 2–12 trajectories from `smallGroupVecs`, so that most groups that break
    * ε_p have 2–5 members, with ε_p also 0, negative or NaN. */
  private def updatesGen(turnover: Boolean, small: Boolean = false
                        ): Gen[(Int, Double, Seq[(Array[Int], Array[Array[Double]])])] = for {
    dim <- Gen.choose(1, 3)
    n <- if (small) Gen.choose(2, 12) else Gen.choose(1, 50)
    epsP <- if (small) Gen.oneOf(0.0, -1.0, Double.NaN, 0.1, 0.3, 1.0) else Gen.oneOf(0.1, 0.3, 0.5, 1.0)
    steps <- Gen.choose(1, 6)
    value = if (turnover) Gen.choose(-2.0, 2.0) else coord
    frames <- Gen.listOfN(steps, for {
      keep <- if (turnover) Gen.listOfN(n, Gen.prob(0.8)) else Gen.const(List.fill(n)(true))
      vs <- if (small) smallGroupVecs(dim, n).map(_.toList) else Gen.listOfN(n, Gen.listOfN(dim, value).map(_.toArray))
    } yield {
      val ids = (0 until n).filter(keep).toArray
      (ids, ids.map(vs(_)))
    })
  } yield (dim, epsP, frames)

  /** Same partition ids, counters and live centroids, bit for bit with the
    * sign of zero. */
  private def sameUpdates(epsP: Double, frames: Seq[(Array[Int], Array[Array[Double]])]): Boolean = {
    val ref = new ReferenceIncrementalPartitioner(epsP)
    val ip = new IncrementalPartitioner(epsP)
    frames.forall { case (ids, vecs) =>
      val same = java.util.Arrays.equals(ref.update(ids, vecs), ip.update(ids, vecs))
      val (rc, ic) = (ref.centroids, ip.centroids)
      same && ref.splits == ip.splits && ref.merges == ip.merges && ref.cappedSplits == ip.cappedSplits &&
        ref.numPartitions == ip.numPartitions && rc.keySet == ic.keySet &&
        rc.forall { case (p, c) => java.util.Arrays.equals(c, ic(p)) }
    }
  }

  test("IncrementalPartitioner.update equals the reference over several updates") {
    check(Prop.forAllNoShrink(updatesGen(turnover = false)) { case (_, epsP, frames) => sameUpdates(epsP, frames) })
  }

  test("IncrementalPartitioner.update equals the reference with trajectories leaving and joining") {
    check(Prop.forAllNoShrink(updatesGen(turnover = true)) { case (_, epsP, frames) => sameUpdates(epsP, frames) })
  }

  test("IncrementalPartitioner.update equals the reference on small groups that break ε_p") {
    check(Prop.forAllNoShrink(updatesGen(turnover = false, small = true)) { case (_, epsP, frames) =>
      sameUpdates(epsP, frames)
    }, tests = 1000)
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
    val cells = new SlotTable // one grid for every case, as a partitioner keeps one for every update
    check(Prop.forAllNoShrink(mergeCase) { case (cents, epsP) =>
      java.util.Arrays.equals(IncrementalPartitioner.mergePartners(cents, cents.length, epsP, cells),
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

  import PrunedEquivalenceSpec.Fit

  /** Coordinates of fits: they repeat, include ±0.0 and lie far from 0,
    * so the sums meet exact ties, collinear histories and pivoting. */
  private val fitValue: Gen[Double] = Gen.frequency(
    3 -> Gen.choose(-2.0, 2.0),
    2 -> Gen.choose(-4, 4).map(_ * 0.5),
    1 -> Gen.oneOf(0.0, -0.0),
    2 -> Gen.choose(-1e-3, 1e-3).map(_ + 116.35))

  private val fitGen: Gen[Fit] = for {
    k <- Gen.choose(1, 4)
    len <- Gen.choose(0, 30)
    pool <- Gen.listOfN(3, fitValue)
    xs <- Gen.listOfN(len, Gen.frequency(3 -> fitValue, 1 -> Gen.oneOf(pool)))
    ys <- Gen.listOfN(len, Gen.frequency(3 -> fitValue, 1 -> Gen.oneOf(pool)))
    ar <- Gen.prob(0.5)
    from <- Gen.choose(0, len)
    n <- Gen.choose(0, len - from)
    window <- Gen.choose(1, 14)
    samples <- if (len < k) Gen.const(Nil)
               else Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(k - 1, len - 1), fitValue, fitValue)))
  } yield Fit(k, ar, xs.toArray, ys.toArray, from, n, window, samples)

  test("AR features and partition fits on reused buffers equal fresh full normal equations") {
    // One buffer per k, shared by every fit of every case in drawn order,
    // as a frontend shares one by all fits of its steps.
    val eqs = Array.tabulate(5)(k => new Predictor.NormalEquations(math.max(k, 1)))
    check(Prop.forAllNoShrink(Gen.choose(1, 12).flatMap(Gen.listOfN(_, fitGen))) { fits =>
      fits.forall { f =>
        val eq = eqs(f.k)
        if (f.ar) java.util.Arrays.equals(Predictor.arFeatures(eq, f.xs, f.ys, f.from, f.n, f.window),
                                          ReferencePredictor.arFeatures(f.xs, f.ys, f.from, f.n, f.k, f.window))
        else {
          eq.reset()
          val ref = new ReferencePredictor.NormalEquations(f.k)
          for ((last, tx, ty) <- f.samples) { eq.add(f.xs, f.ys, last, tx, ty); ref.add(f.xs, f.ys, last, tx, ty) }
          // the old plan's rule: zeros for a partition with no sample
          java.util.Arrays.equals(eq.solve(), if (ref.rows > 0) ref.solve() else new Array[Double](f.k))
        }
      }
    }, tests = 500)
  }
}

object PrunedEquivalenceSpec {
  /** A fit on a shared buffer: AR features (`ar`) over xs/ys(from until
    * from + n) with `window`, or a partition's fit of the samples (last,
    * tx, ty). */
  final case class Fit(k: Int, ar: Boolean, xs: Array[Double], ys: Array[Double], from: Int, n: Int,
                       window: Int, samples: List[(Int, Double, Double)])
}
