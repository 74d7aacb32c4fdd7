package repro.core

/** 2-D point in degree space (x = longitude, y = latitude). */
final case class Pt(x: Double, y: Double) {
  def +(o: Pt): Pt = Pt(x + o.x, y + o.y)
  def -(o: Pt): Pt = Pt(x - o.x, y - o.y)
  def *(s: Double): Pt = Pt(x * s, y * s)
  def dist(o: Pt): Double = { val dx = x - o.x; val dy = y - o.y; math.sqrt(dx * dx + dy * dy) }
  def norm: Double = math.sqrt(x * x + y * y)
}

/** Degree/metre conversion used throughout (paper §6.1: ε₁ = 0.001 ≙ ~111 m). */
object Geo {
  val MetersPerDegree: Double = 111000.0
  def toMeters(deg: Double): Double = deg * MetersPerDegree
  def toDegrees(m: Double): Double = m / MetersPerDegree
}

/** Small integer-math helpers shared by size accounting and grouping. */
object MathUtil {
  /** Bits needed to address `v` distinct values (min 1). */
  def ceilLog2(v: Int): Int =
    if (v <= 2) 1 else 32 - Integer.numberOfLeadingZeros(v - 1)

  /** Stable counting sort of 0 until keys.length by key (keys in 0 until m):
    * bucket b holds idx(start(b) until start(b + 1)), in increasing order. */
  private[repro] def buckets(keys: Array[Int], m: Int): (Array[Int], Array[Int]) = {
    val start = new Array[Int](m + 1)
    keys.foreach(k => start(k + 1) += 1)
    var b = 0
    while (b < m) { start(b + 1) += start(b); b += 1 }
    val fill = start.clone
    val idx = new Array[Int](keys.length)
    var i = 0
    while (i < keys.length) { idx(fill(keys(i))) = i; fill(keys(i)) += 1; i += 1 }
    (start, idx)
  }
}

/** Half-open axis-aligned rectangle [x0,x1) × [y0,y1). */
final case class Rect(x0: Double, y0: Double, x1: Double, y1: Double) {
  require(x1 >= x0 && y1 >= y0, s"degenerate rect ($x0,$y0,$x1,$y1)")
  def width: Double = x1 - x0
  def height: Double = y1 - y0
  def area: Double = width * height
  def contains(p: Pt): Boolean = p.x >= x0 && p.x < x1 && p.y >= y0 && p.y < y1
  def intersects(o: Rect): Boolean = x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1
  def intersection(o: Rect): Option[Rect] = {
    val nx0 = math.max(x0, o.x0); val ny0 = math.max(y0, o.y0)
    val nx1 = math.min(x1, o.x1); val ny1 = math.min(y1, o.y1)
    if (nx0 < nx1 && ny0 < ny1) Some(Rect(nx0, ny0, nx1, ny1)) else None
  }
}

object Rect {
  /** Minimum rectangle covering pts; upper edges nudged out so the
    * half-open `contains` still covers the maxima. */
  def bounding(pts: Iterable[Pt], pad: Double = 1e-9): Rect = {
    require(pts.nonEmpty, "bounding rect of nothing")
    var x0 = Double.MaxValue; var y0 = Double.MaxValue
    var x1 = -Double.MaxValue; var y1 = -Double.MaxValue
    pts.foreach { p =>
      if (p.x < x0) x0 = p.x; if (p.x > x1) x1 = p.x
      if (p.y < y0) y0 = p.y; if (p.y > y1) y1 = p.y
    }
    Rect(x0, y0, x1 + pad, y1 + pad)
  }

  /** r minus b: up to four disjoint rectangles covering r \ b
    * (the polygon-to-rectangle step of Alg. 3's remove_overlap [17]). */
  def subtract(r: Rect, b: Rect): Seq[Rect] = r.intersection(b) match {
    case None => Seq(r)
    case Some(i) =>
      val out = Seq.newBuilder[Rect]
      if (i.y1 < r.y1) out += Rect(r.x0, i.y1, r.x1, r.y1) // top strip
      if (r.y0 < i.y0) out += Rect(r.x0, r.y0, r.x1, i.y0) // bottom strip
      if (r.x0 < i.x0) out += Rect(r.x0, i.y0, i.x0, i.y1) // left of the hole
      if (i.x1 < r.x1) out += Rect(i.x1, i.y0, r.x1, i.y1) // right of the hole
      out.result()
  }

  /** r minus each of bs in turn. Every piece lies inside r, so a b that
    * misses r leaves the pieces as they are and is skipped. */
  def subtractAll(r: Rect, bs: Iterable[Rect]): Seq[Rect] =
    bs.filter(_.intersects(r)).foldLeft(Seq(r))((acc, b) => acc.flatMap(subtract(_, b)))
}
