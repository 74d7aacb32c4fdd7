package repro.baselines

import repro.core._
import scala.collection.mutable

/** TrajStore [10]: an adaptive quadtree storage layer. Points stream in;
  * a leaf splits into four when it exceeds `maxPerLeaf`. Summaries are
  * computed per spatial cell — bounded codebooks for the Tables 5/6
  * protocol, or a codeword budget distributed proportionally to cell
  * counts for the Table 2 protocol (as §6.2.1 describes). */
final class TrajStoreIndex(val bbox: Rect, val maxPerLeaf: Int) {

  /** A quadtree cell: a leaf holds points; a split cell holds none and has
    * four children. */
  final class Cell(val rect: Rect) {
    val pts = mutable.ArrayBuffer.empty[(Int, Int, Pt)] // (trajId, t, p)
    private[TrajStoreIndex] var children = Array.empty[Cell]
  }

  private val root = new Cell(bbox)
  var splitOps = 0

  private def childRects(r: Rect): Array[Rect] = {
    val mx = (r.x0 + r.x1) / 2; val my = (r.y0 + r.y1) / 2
    Array(Rect(r.x0, r.y0, mx, my), Rect(mx, r.y0, r.x1, my),
          Rect(r.x0, my, mx, r.y1), Rect(mx, my, r.x1, r.y1))
  }

  /** The leaf under `from` that p belongs to: at each split cell, the first
    * child whose rect contains p, else the last child (a point on an upper
    * edge of the bbox lies in none). */
  private def leafUnder(from: Cell, p: Pt): Cell = {
    var c = from
    while (c.children.nonEmpty) c = c.children.find(_.rect.contains(p)).getOrElse(c.children(3))
    c
  }

  /** Appends the point to its leaf under `from`; an overfull leaf splits and
    * its points, in order, go down again from it. */
  private def add(from: Cell, e: (Int, Int, Pt)): Unit = {
    val leaf = leafUnder(from, e._3)
    leaf.pts += e
    if (leaf.pts.length > maxPerLeaf && leaf.rect.width > 1e-7) {
      splitOps += 1
      leaf.children = childRects(leaf.rect).map(new Cell(_))
      val moved = leaf.pts.toArray
      leaf.pts.clear()
      moved.foreach(add(leaf, _))
    }
  }

  def insert(id: Int, t: Int, p: Pt): Unit = add(root, (id, t, p))

  /** The leaves, depth first with children in order. */
  def leaves: Seq[Cell] = {
    val out = mutable.ArrayBuffer.empty[Cell]
    def rec(c: Cell): Unit = if (c.children.isEmpty) out += c else c.children.foreach(rec)
    rec(root)
    out.toSeq
  }

  def leafOf(p: Pt): Cell = leafUnder(root, p)

  /** Trajectory ids stored in the leaf cell of p at time t. */
  def query(p: Pt, t: Int): Array[Int] =
    leafOf(p).pts.collect { case (id, tt, _) if tt == t => id }.distinct.toArray
}

object TrajStoreQuant {

  /** Tables 5/6: per-leaf error-bounded codebooks over the leaf's points.
    * Returns (reconstruction per (id,t), total codewords). */
  def summarizeBounded(idx: TrajStoreIndex, epsDeg: Double): (Map[(Int, Int), Pt], Int) = {
    val recon = mutable.HashMap.empty[(Int, Int), Pt]
    var words = 0
    for (leaf <- idx.leaves if leaf.pts.nonEmpty) {
      val cb = new ErrorBoundedCodebook(epsDeg)
      for ((id, t, p) <- leaf.pts) recon((id, t)) = cb(cb.quantize(p))
      words += cb.size
    }
    (recon.toMap, words)
  }

  /** Bits of a `summarizeBounded` summary: `words` codewords, one index per point. */
  def summaryBits(words: Int, nPoints: Long): Long = words.toLong * 128 + nPoints * MathUtil.ceilLog2(math.max(words, 2))

  /** Table 2 protocol: distribute a total codeword budget v over leaves
    * proportionally to the number of this timestamp's points they hold,
    * then k-means each leaf's points with its share. */
  def summarizeBudgetAt(idx: TrajStoreIndex, t: Int, v: Int, seed: Long): Map[Int, Pt] = {
    val out = mutable.HashMap.empty[Int, Pt]
    val leaves = idx.leaves.map(_.pts.filter(_._2 == t)).filter(_.nonEmpty)
    val total = leaves.map(_.length).sum
    if (total == 0) return Map.empty
    for (pts <- leaves) {
      val share = math.max(1, math.round(v.toDouble * pts.length / total).toInt)
      val arr = pts.map(_._3).toArray
      val (cents, assign) = KMeans.clusterPts(arr, share, seed = seed)
      var i = 0
      while (i < pts.length) { out(pts(i)._1) = cents(assign(i)); i += 1 }
    }
    out.toMap
  }
}
