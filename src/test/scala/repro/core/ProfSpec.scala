package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ProfSpec extends AnyFunSuite {
  private def prof() = new Prof(HwProfile.skylake)

  test("ops and loads count instructions") {
    val p = prof()
    p.ops(5)
    p.load(0x1000)
    p.store(0x2000)
    assert(p.instr == 7 && p.loads == 1 && p.stores == 1)
  }

  test("simdOps divides by lane count (ceil)") {
    val p = prof()
    p.simdOps(33) // 33 lanes of 32-bit on a 32-lane machine → 2 instr
    assert(p.instr == 2)
  }

  test("enter/exit loop maintains a stack") {
    val p = prof()
    p.enterLoop(10)
    assert(p.currentBody == 10)
    p.enterLoop(100)
    assert(p.currentBody == 100)
    p.exitLoop()
    assert(p.currentBody == 10)
    p.exitLoop()
    intercept[IllegalStateException](p.exitLoop())
  }

  test("memory stalls: small loop bodies hide latency better (MLP model)") {
    // identical DRAM-missing access patterns, different loop contexts
    def stallWith(body: Int): Double = {
      val p = prof()
      p.enterLoop(body)
      var i = 0
      while (i < 1000) { p.load(0x10000000L + 1013L * 64 * i); i += 1 }
      p.exitLoop()
      p.memStallCycles
    }
    val simple = stallWith(8)    // vectorized probe primitive shape
    val complex = stallWith(200) // fused mega-loop shape
    assert(simple < complex / 3, s"simple=$simple complex=$complex")
  }

  test("MLP is clamped to [1, maxMLP]") {
    val hw = HwProfile.skylake
    def stall(body: Int): Double = {
      val p = new Prof(hw)
      p.enterLoop(body)
      p.load(0x20000000L)
      p.exitLoop()
      p.memStallCycles
    }
    // body 1 → window/1 ≫ maxMLP → clamp at maxMLP=10 ⇒ latency/10
    assert(math.abs(stall(1) - hw.memLatCycles / 10.0) < 1e-9)
    // body ≥ window → mlp 1 ⇒ full latency
    assert(math.abs(stall(1000) - hw.memLatCycles.toDouble) < 1e-9)
  }

  test("branch mispredicts cost more in complex loops") {
    def cost(body: Int): Double = {
      val p = prof()
      val site = BranchSim.site()
      p.enterLoop(body)
      val rnd = new scala.util.Random(1)
      for (_ <- 0 until 2000) p.branch(site, rnd.nextBoolean())
      p.exitLoop()
      p.cycles - p.instr.toDouble / p.hw.issueWidth
    }
    assert(cost(100) > cost(4))
  }

  test("cycles = instr/issueWidth when no stalls or mispredicts") {
    val p = prof()
    p.ops(400)
    assert(math.abs(p.cycles - 100.0) < 1e-9)
    assert(math.abs(p.ipc - 4.0) < 1e-9)
  }

  test("perTuple normalizes all counters") {
    val p = prof()
    p.ops(1000)
    val c = p.perTuple(100)
    assert(math.abs(c.instr - 10.0) < 1e-9)
    assert(c.l1Miss == 0.0 && c.branchMiss == 0.0)
  }

  test("seconds derives from clock rate") {
    val p = prof()
    p.ops(4 * 4000000)
    assert(math.abs(p.seconds - 4e6 / (4.0e9)) < 1e-9)
  }

  test("arena placements are 64-byte aligned, non-overlapping and above the columns") {
    val p = prof()
    val a = p.place(100); val b = p.place(1); val c = p.place(0); val d = p.place(64)
    assert(Seq(a, b, c, d).forall(_ % 64 == 0))
    assert(a >= Arena.RunBase && b >= a + 100 && c - b == 64 && d - c == 64)
  }

  test("a region is placed once per Prof, on first touch, in touch order") {
    val p = prof()
    val r1 = new Region(1000); val r2 = new Region(8)
    val a2 = r2.addr(p)
    val a1 = r1.addr(p)
    assert(a2 == Arena.RunBase && a1 == Arena.RunBase + 64)
    assert(r1.addr(p) == a1 && r2.addr(p) == a2)
    // a fresh Prof places afresh, whatever the earlier one did
    val q = prof()
    assert(r1.addr(q) == Arena.RunBase && r2.addr(q) == Arena.RunBase + 1024)
  }
}
