package repro.core

/** A bump allocator over the cache simulator's synthetic 64-bit address
  * space, with one owner and no locking: a data set's column layout
  * (`Columnar.fromDF`, in its builder's table/column order) or a [[Prof]].
  * Ranges are 64-byte aligned, so distinct structures never share a line.
  */
final class Arena(start: Long) {
  private var top = start

  /** Reserve `bytes` (at least one line); returns the base address. */
  def take(bytes: Long): Long = { val a = top; top += ((bytes max 1L) + 63L) & ~63L; a }
}

object Arena {
  /** Columns are packed upward from here (below it: a null-ish guard zone). */
  val ColumnBase: Long = 1L << 20
  /** Per-run structures are placed upward from here, above any column. The
    * 128 MB offset is half the period of `Prof`'s stream-prefetcher table
    * (256 slots of 1 MB regions): with less than 127 MB of columns, a hash
    * table or vector never shares a slot with, and so never resets, a column
    * scan's stream.
    */
  val RunBase: Long = (1L << 40) + (128L << 20)
}

/** A per-run structure's byte range (a vector, a hash-table heap or bucket
  * directory). Each [[Prof]] places it in its own arena when the run first
  * touches it, so addresses depend only on what the run touches, in what
  * order. Runs without a `Prof` never call [[addr]].
  */
class Region(bytes: Long) {
  private var owner: Prof = null
  private var base = 0L

  final def addr(p: Prof): Long = {
    if (owner ne p) { base = p.place(bytes); owner = p }
    base
  }
}
