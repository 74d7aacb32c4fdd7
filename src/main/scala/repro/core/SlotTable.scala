package repro.core

/** Open-addressing map from long keys to dense slots 0, 1, 2, … numbered
  * in order of first insertion, so that callers keep per-key state in
  * plain arrays indexed by slot. Linear probing over a power-of-two table
  * at most half full; the hash multiplies by 2⁶⁴/φ and keeps the high bits,
  * so keys that differ only in their low or only in their high 32 bits
  * (grid cells, small ids) spread over the table. */
private[repro] final class SlotTable {
  private var bits = 4
  private var keys = new Array[Long](1 << bits)
  private var slots = new Array[Int](1 << bits) // slot + 1; 0 marks a free entry
  private var used = 0

  def size: Int = used

  private def home(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> (64 - bits)).toInt

  /** The entry that holds `key`, or the free entry where it would go. */
  private def entry(key: Long): Int = {
    val mask = keys.length - 1
    var e = home(key)
    while (slots(e) != 0 && keys(e) != key) e = (e + 1) & mask
    e
  }

  /** The slot of `key`, or -1 if it was never added. */
  def slot(key: Long): Int = slots(entry(key)) - 1

  /** The slot of `key`, adding it as slot `size` if it is new. */
  def slotOrAdd(key: Long): Int = {
    val e = entry(key)
    if (slots(e) != 0) return slots(e) - 1
    keys(e) = key; slots(e) = used + 1
    used += 1
    if (2 * used > keys.length) grow()
    used - 1
  }

  /** Forgets every key; slots are numbered from 0 again. */
  def clear(): Unit = {
    java.util.Arrays.fill(slots, 0)
    used = 0
  }

  private def grow(): Unit = {
    val oldKeys = keys; val oldSlots = slots
    bits += 1
    keys = new Array[Long](1 << bits); slots = new Array[Int](1 << bits)
    var i = 0
    while (i < oldKeys.length) {
      if (oldSlots(i) != 0) { val e = entry(oldKeys(i)); keys(e) = oldKeys(i); slots(e) = oldSlots(i) }
      i += 1
    }
  }
}

private[repro] object SlotTable {
  /** The key of grid cell (cx, cy): cx in the high and cy in the low 32 bits. */
  def cellKey(cx: Long, cy: Long): Long = (cx << 32) ^ (cy & 0xffffffffL)
}
