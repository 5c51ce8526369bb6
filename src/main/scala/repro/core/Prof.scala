package repro.core

/** Software stand-in for `perf` hardware counters (paper Table 1, §4).
  *
  * Both engines thread a `Prof` (or `null` for zero-overhead real-time runs)
  * through their hot loops and report, per modeled machine operation:
  *
  *  - instructions (arithmetic/compare/branch/load/store, incl. the extra
  *    load/store traffic of vectorized materialization — §4.2),
  *  - data-cache behaviour via [[CacheSim]] over a synthetic address space,
  *  - data-dependent branch outcomes via [[BranchSim]],
  *  - memory-stall cycles via a memory-level-parallelism (MLP) model.
  *
  * Columns have fixed addresses; each per-run [[Region]] is placed in this
  * `Prof`'s own [[Arena]] on first touch; branch sites are fixed ids. So the
  * counters depend only on query, data and hardware profile, not on what
  * ran earlier in the JVM.
  *
  * '''MLP model''' (the paper's central §4.1 mechanism): a load miss inside a
  * loop stalls for `latency / mlp` where `mlp = clamp(oooWindow / bodyInstr,
  * 1, maxMLP)`. Simple vectorized primitive loops (small body) let the
  * out-of-order core speculate across many iterations and overlap misses;
  * complex fused loops (large body) fill the window after few iterations and
  * expose the latency. This is derived from loop shape, not hard-coded per
  * engine.
  *
  * Branch mispredicts cost a front-end refill plus the speculative work
  * discarded, which also grows with loop-body size (§4.1: "every branch miss
  * is more expensive ... in a complex loop").
  *
  * Instances are single-threaded and live for one run; counter experiments
  * run with 1 worker, matching the paper's single-threaded Table 1.
  */
final class Prof(val hw: HwProfile) {
  val cache: CacheSim = CacheSim.hierarchy(hw)
  private val llc: CacheSim = cache.next
  val bp = new BranchSim

  var instr: Long  = 0
  var loads: Long  = 0
  var stores: Long = 0
  private var stallCycles: Double  = 0
  private var branchCycles: Double = 0
  private val arena = new Arena(Arena.RunBase)

  /** Place `bytes` of per-run structure in this run's arena ([[Region]]). */
  def place(bytes: Long): Long = arena.take(bytes)

  // Current loop context: estimated instructions per iteration of the
  // innermost hot loop. Maintained as a stack (operators can nest).
  private var bodyStack: List[Int] = Nil
  private var body: Int = 16

  def enterLoop(bodyInstr: Int): Unit = { bodyStack = body :: bodyStack; body = math.max(1, bodyInstr) }
  def exitLoop(): Unit = bodyStack match {
    case h :: t => body = h; bodyStack = t
    case Nil    => throw new IllegalStateException("exitLoop without enterLoop")
  }
  def currentBody: Int = body

  private def mlp: Double = {
    val m = hw.oooWindow.toDouble / body
    if (m < 1.0) 1.0 else if (m > hw.maxMLP) hw.maxMLP.toDouble else m
  }

  // Hardware stream prefetcher: per-1MB-region last-line table. A miss whose
  // line is at/just ahead of the region's stream head counts as prefetched —
  // it still registers as a cache miss (perf counters do) but stalls the
  // pipeline only negligibly. This is what makes sequential column scans
  // cheap (paper Q1/Q6) while random hash-table probes and sparse
  // selection-vector gathers (§5.1) pay full latency.
  private val streamHead = new Array[Long](256)

  private def prefetched(addr: Long, line: Long): Boolean = {
    val slot = ((addr >>> 20) & 255).toInt
    val prev = streamHead(slot)
    streamHead(slot) = line + 1
    prev != 0 && line >= prev - 1 && line - (prev - 1) <= 4
  }

  /** `n` scalar ALU/compare instructions. */
  def ops(n: Int): Unit = instr += n

  /** Loop-control instructions (compare + increment + back-edge ≈ 2) for a
    * loop that ran `n` iterations. Vectorized primitives pay this once per
    * element *per primitive*; a fused Typer loop pays it once per tuple —
    * a systematic instruction-count difference the paper measures (§4.2).
    */
  def loop(n: Int): Unit = instr += 2L * n

  /** `n` data-parallel ops over 32-bit lanes; costs ceil(n/simdLanes) instr. */
  def simdOps(n: Int): Unit = instr += (n + hw.simdLanes - 1) / hw.simdLanes

  /** A data load of the line containing `addr`. */
  def load(addr: Long): Unit = {
    instr += 1; loads += 1
    val depth = cache.access(addr)
    if (depth >= 1 && !prefetched(addr, addr >>> 6)) {
      if (depth == 1) stallCycles += hw.l2LatCycles / mlp
      else stallCycles += hw.memLatCycles / mlp
    }
  }

  /** A data store to the line containing `addr` (write-allocate, stall-free
    * thanks to store buffers, but it costs an instruction and pollutes cache).
    */
  def store(addr: Long): Unit = {
    instr += 1; stores += 1
    cache.access(addr)
    ()
  }

  /** A data-dependent branch at static `site`. */
  def branch(site: Int, taken: Boolean): Unit = {
    instr += 1
    if (bp.branch(site, taken)) {
      branchCycles += 14.0 + math.min(body, hw.oooWindow / 2).toDouble / hw.issueWidth
    }
  }

  // ---- derived counters ------------------------------------------------

  def l1Misses: Long     = cache.misses
  def llcMisses: Long    = llc.misses
  def branchMisses: Long = bp.mispredicts
  def memStallCycles: Double = stallCycles

  /** Modeled total cycles: issue-limited base + branch + memory stalls. */
  def cycles: Double = instr.toDouble / hw.issueWidth + branchCycles + stallCycles
  def ipc: Double    = if (cycles == 0) 0 else instr / cycles
  /** Modeled wall time for this (single-threaded) run. */
  def seconds: Double = cycles / (hw.clockGHz * 1e9)

  /** Per-tuple counter row, normalized like the paper's Table 1. */
  def perTuple(tuples: Long): Prof.Counters = Prof.Counters(
    cycles = cycles / tuples, ipc = ipc, instr = instr.toDouble / tuples,
    l1Miss = l1Misses.toDouble / tuples, llcMiss = llcMisses.toDouble / tuples,
    branchMiss = branchMisses.toDouble / tuples, memStall = stallCycles / tuples)
}

object Prof {
  /** One row of the paper's counter tables, normalized per tuple scanned. */
  final case class Counters(cycles: Double, ipc: Double, instr: Double,
                            l1Miss: Double, llcMiss: Double, branchMiss: Double,
                            memStall: Double)
}
