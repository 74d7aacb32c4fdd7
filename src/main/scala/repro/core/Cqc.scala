package repro.core

/** A CQC code: `len` bits (two per quadtree level), most significant first. */
final case class CqcCode(bits: Long, len: Int)

/** Coordinate quadtree over an s × s grid (Def. 4.1, Alg. 2).
  *
  * Each split produces four equally sized square children; when the current
  * subspace has an odd side it is first padded by one row and one column
  * toward the outer corner of the quadrant it occupies (Fig. 3's rule:
  * quadrant 00 pads upper-left, 01 upper-right, 10 bottom-left, 11
  * bottom-right), so padding cells from different rounds never conflict.
  * The tree is a pure function of `side` — a fixed template shared by the
  * encoder and the decoder, exactly as §4.2 stores it.
  *
  * Quadrant labels follow the paper: 00 = upper-left, 01 = upper-right,
  * 10 = bottom-left, 11 = bottom-right (high bit = bottom, low bit = right).
  */
final class CoordinateQuadtree(val side: Int) {
  import CoordinateQuadtree._
  require(side >= 1 && side <= MaxSide, s"side out of range: $side (allowed: 1..$MaxSide)")

  /** Path of 2-bit quadrant labels from the root to the unit cell (cx, cy). */
  def encode(cx: Int, cy: Int): CqcCode = {
    require(cx >= 0 && cx < side && cy >= 0 && cy < side, s"cell out of grid: ($cx,$cy) side=$side")
    var ox = 0; var oy = 0; var size = side; var quad = RootQuad
    var bits = 0L; var len = 0
    while (size > 1) {
      val px = paddedX(ox, size, quad)
      val py = paddedY(oy, size, quad)
      val psize = if (size % 2 == 0) size else size + 1
      val h = psize / 2
      val right = cx >= px + h
      val top = cy >= py + h
      val q = quadOf(top, right)
      bits = (bits << 2) | q
      len += 2
      ox = if (right) px + h else px
      oy = if (top) py + h else py
      size = h
      quad = q
    }
    CqcCode(bits, len)
  }

  /** Unit cell reached by replaying the code over the shared template. */
  def decode(code: CqcCode): (Int, Int) = {
    var ox = 0; var oy = 0; var size = side; var quad = RootQuad
    var i = code.len - 2
    while (i >= 0) {
      val q = ((code.bits >>> i) & 3L).toInt
      val px = paddedX(ox, size, quad)
      val py = paddedY(oy, size, quad)
      val psize = if (size % 2 == 0) size else size + 1
      val h = psize / 2
      val right = (q & 1) == 1
      val top = (q >> 1) == 0
      ox = if (right) px + h else px
      oy = if (top) py + h else py
      size = h
      quad = q
      i -= 2
    }
    require(size == 1, s"code does not reach a unit cell (len=${code.len}, side=$side)")
    (ox, oy)
  }

  /** Maximum code length in bits for this template. */
  def maxCodeBits: Int = {
    var size = side; var len = 0
    while (size > 1) { size = (if (size % 2 == 0) size else size + 1) / 2; len += 2 }
    len
  }
}

object CoordinateQuadtree {
  val MaxSide = 4096

  /** Fixed root padding convention (treated as an upper-right subspace). */
  val RootQuad = 1

  private[core] def quadOf(top: Boolean, right: Boolean): Int =
    ((if (top) 0 else 1) << 1) | (if (right) 1 else 0)

  /** Padded x-origin: odd subspaces grow one column toward the quadrant's
    * outer corner (left for 00/10, right — i.e. origin unchanged — for 01/11). */
  private[core] def paddedX(ox: Int, size: Int, quad: Int): Int =
    if (size % 2 == 0) ox
    else if ((quad & 1) == 0) ox - 1 // left quadrants pad left
    else ox                          // right quadrants pad right

  /** Padded y-origin: odd subspaces grow one row toward top for 00/01
    * (origin unchanged, extra row above) and toward bottom for 10/11. */
  private[core] def paddedY(oy: Int, size: Int, quad: Int): Int =
    if (size % 2 == 0) oy
    else if ((quad >> 1) == 0) oy    // top quadrants pad up
    else oy - 1                      // bottom quadrants pad down
}

/** CQC applied to trajectory points (§4.2): the error space is the square
  * S = [x̂−ε₁, x̂+ε₁) × [ŷ−ε₁, ŷ+ε₁) around the codebook reconstruction,
  * gridded at g_s. Only the actual point's cell code is stored per sample;
  * refinement decodes to the cell centre, so Lemma 3's (√2/2)·g_s bound
  * holds whenever the codebook bound ‖e − C(b)‖ ≤ ε₁ held. */
object Cqc {
  def sideFor(eps1: Double, gs: Double): Int =
    math.max(1, math.ceil(2 * eps1 / gs - 1e-12).toInt)

  private def cellIndex(a: Double, r: Double, eps1: Double, gs: Double, s: Int): Int = {
    val c = math.floor((a - (r - eps1)) / gs).toInt
    math.min(s - 1, math.max(0, c))
  }

  def encode(actual: Pt, recon: Pt, eps1: Double, gs: Double, qt: CoordinateQuadtree): CqcCode = {
    val s = qt.side
    qt.encode(cellIndex(actual.x, recon.x, eps1, gs, s), cellIndex(actual.y, recon.y, eps1, gs, s))
  }

  /** Refined reconstruction (Eq. 11): centre of the decoded grid cell. */
  def refine(recon: Pt, code: CqcCode, eps1: Double, gs: Double, qt: CoordinateQuadtree): Pt = {
    val (cx, cy) = qt.decode(code)
    Pt(recon.x - eps1 + (cx + 0.5) * gs, recon.y - eps1 + (cy + 0.5) * gs)
  }
}
