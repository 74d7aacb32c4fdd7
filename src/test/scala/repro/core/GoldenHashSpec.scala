package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{TrajDataset, TrajGen}
import repro.eval.EvalConfig
import repro.index.Pi

/** Pins the encoder's exact output for fixed seeds. Any change to
  * partitioning, prediction, quantization or CQC that alters a single bit
  * of a code, codeword, coefficient or assignment changes these hashes, so
  * a refactor or speed-up that claims "same behaviour" is held to it. */
class GoldenHashSpec extends AnyFunSuite {

  /** SHA-256 over a stream of longs and doubles (doubles by their bits). */
  private final class Fingerprint {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(8)
    def long(v: Long): Unit = { buf.clear(); buf.putLong(v); md.update(buf.array()) }
    def double(v: Double): Unit = long(java.lang.Double.doubleToRawLongBits(v))
    def pt(p: Pt): Unit = { double(p.x); double(p.y) }
    def hex: String = md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def encode(data: TrajDataset, params: PpqParams): String = {
    val enc = new PpqEncoder(params)
    val f = new Fingerprint
    for (t <- 1 to data.len; cp <- enc.step(t, data.pointsAt(t))) {
      f.long(cp.trajId); f.long(cp.t); f.long(cp.part); f.long(cp.b)
      f.long(cp.cqcBits); f.long(cp.cqcLen); f.pt(cp.recon); f.pt(cp.refined)
    }
    enc.codebook.codewords.foreach(f.pt)
    f.long(enc.summaryBits)
    for (s <- enc.steps) {
      f.long(s.t); f.long(s.numParts)
      for ((id, part) <- s.assign.toSeq.sorted) { f.long(id); f.long(part) }
      for ((part, cs) <- s.coeffs.toSeq.sortBy(_._1)) { f.long(part); cs.foreach(f.double) }
    }
    f.hex
  }

  private val porto = EvalConfig.porto
  private val geolife = EvalConfig.geolife

  private val cases: Seq[(String, () => String, String)] = Seq(
    ("PPQ-A porto 400x30 seed 5",
      () => encode(TrajGen.portoLike(400, 30, 5), porto.params(PartitionMode.Autocorr, useCqc = true)),
      "8dad15ba5faa180e"),
    ("PPQ-A porto 1600x8 seed 1010",
      () => encode(TrajGen.portoLike(1600, 8, 1010), porto.params(PartitionMode.Autocorr, useCqc = true)),
      "1493561dc8126a6b"),
    ("PPQ-A-basic geolife 150x40 seed 43",
      () => encode(TrajGen.geolifeLike(150, 40, 43), geolife.params(PartitionMode.Autocorr, useCqc = false)),
      "3f392af35df73137"),
    ("PPQ-S porto 400x30 seed 6",
      () => encode(TrajGen.portoLike(400, 30, 6), porto.params(PartitionMode.Spatial, useCqc = true)),
      "b21fcccfe5c17214"),
    ("PPQ-S geolife 300x40 seed 43",
      () => encode(TrajGen.geolifeLike(300, 40, 43), geolife.params(PartitionMode.Spatial, useCqc = true)),
      "83cc8bad2f46ad9f"),
    ("E-PQ porto 200x30 seed 7",
      () => encode(TrajGen.portoLike(200, 30, 7), porto.params(PartitionMode.Single, useCqc = true)),
      "466ad7d7a82d18b6"),
    ("Pi.buildRegions porto 800 points t=10",
      () => {
        val f = new Fingerprint
        val pts = TrajGen.portoLike(800, 10, 8).pointsAt(10)
        for ((region, density) <- Pi.buildRegions(pts, 0.02, porto.gcDeg, seed = 23)) {
          val r = region.rect
          f.double(r.x0); f.double(r.y0); f.double(r.x1); f.double(r.y1); f.double(density)
        }
        f.hex
      },
      "544de808b1ec1bcf"))

  for ((name, run, expected) <- cases)
    test(s"golden hash: $name") {
      val got = run()
      assert(got == expected, s"$name hashed to $got")
    }
}
