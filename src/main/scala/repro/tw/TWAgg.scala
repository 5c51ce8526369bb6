package repro.tw

import repro.core.{AggHashTable, BranchSim, Prof}

/** Vectorized group-by (§2.2): find the group entry for every tuple of the
  * batch (same candidate-chasing technique as the join), insert groups for
  * the misses, then run aggregation primitives using the group-entry vector.
  *
  * Each worker owns a private `TWAgg` (and thus a private [[AggHashTable]]);
  * the cross-worker merge is the shared two-phase scheme in
  * `repro.core` — so unlike the paper's shared-table variant, the
  * group-less-tuple partitioning step cannot produce duplicate groups here
  * and inserting misses in batch order is correct.
  */
final class TWAgg(val table: AggHashTable, vecSize: Int) {
  val keySlots: Int = table.keySlots
  val groups = new EntryVec(vecSize)

  private val keyRow = new Array[Long](keySlots)
  private val sMiss = BranchSim.site("TWAgg.groupMiss")

  /** Resolve group entries for `n` batch positions (dense key vectors). */
  def findGroups(hashes: Vec, keys: Array[Vec], n: Int, p: Prof): Unit = {
    require(keys.length == keySlots)
    var i = 0
    if (p ne null) p.enterLoop(10 + 2 * keySlots)
    while (i < n) {
      var s = 0
      while (s < keySlots) {
        if (p ne null) p.load(keys(s).addr(p) + 8L * i)
        keyRow(s) = keys(s).a(i)
        s += 1
      }
      if (p ne null) p.load(hashes.addr(p) + 8L * i)
      val h = hashes.a(i)
      var e = table.find(h, keyRow, 0, p)
      val miss = e < 0
      if (p ne null) p.branch(sMiss, miss)
      if (miss) {
        // §2.2: group-less tuples are shuffled into key partitions before
        // insertion — extra vectorized-aggregation work Typer does not do.
        if (p ne null) p.ops(8)
        e = table.insert(h, keyRow, 0, p)
      }
      groups.a(i) = e
      if (p ne null) p.store(groups.addr(p) + 4L * i)
      i += 1
    }
    if (p ne null) { p.loop(n); p.exitLoop() }
  }

  /** Aggregation primitive: value slot `slot` += vals[i] per tuple. */
  def sumInto(slot: Int, vals: Vec, n: Int, p: Prof): Unit = {
    var i = 0
    if (p ne null) p.enterLoop(6)
    while (i < n) {
      if (p ne null) { p.load(groups.addr(p) + 4L * i); p.load(vals.addr(p) + 8L * i) }
      table.addToValue(groups.a(i), slot, vals.a(i), p)
      i += 1
    }
    if (p ne null) { p.loop(n); p.exitLoop() }
  }

  /** Aggregation primitive: value slot `slot` += 1 per tuple (COUNT). */
  def countInto(slot: Int, n: Int, p: Prof): Unit = {
    var i = 0
    if (p ne null) p.enterLoop(4)
    while (i < n) {
      if (p ne null) p.load(groups.addr(p) + 4L * i)
      table.addToValue(groups.a(i), slot, 1L, p)
      i += 1
    }
    if (p ne null) { p.loop(n); p.exitLoop() }
  }
}
