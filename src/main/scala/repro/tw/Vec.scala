package repro.tw

import repro.core.Region

/** A Tectorwise value vector: one intermediate-result buffer of 64-bit
  * values. Under a `Prof` every vector is a [[Region]] of the run's arena,
  * so the cache simulator sees materialization traffic (the paper's §4.2
  * source of extra instructions and L1 misses in vectorized execution).
  */
final class Vec(val capacity: Int) extends Region(8L * capacity) {
  val a: Array[Long] = new Array[Long](capacity)
}

/** A selection vector: indexes of qualifying tuples within the current
  * batch, produced by selection primitives and consumed by all downstream
  * primitives (§2.1).
  */
final class Sel(val capacity: Int) extends Region(4L * capacity) {
  val a: Array[Int] = new Array[Int](capacity)
  var n: Int = 0
}

/** An entry-index vector (hash-table candidates / matches in Fig. 2b). */
final class EntryVec(val capacity: Int) extends Region(4L * capacity) {
  val a: Array[Int] = new Array[Int](capacity)
}
