package repro.typer

import repro.core.{BranchSim, HashTable, Prof}

/** Helpers shared by the hand-fused Typer pipelines.
  *
  * Each "generated" Typer query is a set of single-loop pipelines (paper
  * Fig. 2a): scan + filters + probes + aggregate updates fused into one loop
  * body, with intermediates held in locals. These helpers are what the code
  * generator would inline at every probe site.
  */
object TyperOps {
  private val sEq1 = BranchSim.site("TyperOps.eq1")
  private val sChain1 = BranchSim.site("TyperOps.chain1")
  private val sEq2 = BranchSim.site("TyperOps.eq2")
  private val sChain2 = BranchSim.site("TyperOps.chain2")

  /** Probe a single-key chain; returns the matching entry or -1. */
  def probe1(ht: HashTable, h: Long, k0: Long, p: Prof): Int = {
    var e = ht.first(h, p)
    while (e >= 0) {
      val eq = ht.getSlot(e, 0, p) == k0
      if (p ne null) { p.ops(1); p.branch(sEq1, eq) }
      if (eq) return e
      e = ht.next(e, p)
      if (p ne null) p.branch(sChain1, e >= 0)
    }
    -1
  }

  /** Probe a composite (two-key) chain — the generated code checks both key
    * parts in one expression (paper Fig. 2a), which vectorization cannot.
    */
  def probe2(ht: HashTable, h: Long, k0: Long, k1: Long, p: Prof): Int = {
    var e = ht.first(h, p)
    while (e >= 0) {
      val eq = ht.getSlot(e, 0, p) == k0 && ht.getSlot(e, 1, p) == k1
      if (p ne null) { p.ops(2); p.branch(sEq2, eq) }
      if (eq) return e
      e = ht.next(e, p)
      if (p ne null) p.branch(sChain2, e >= 0)
    }
    -1
  }
}
