package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Random

class BranchSimSpec extends AnyFunSuite {

  test("always-taken branch is learned after warm-up") {
    val b = new BranchSim
    val site = BranchSim.site()
    // gshare: while the 8-bit history fills with 1s, up to ~9 distinct
    // counters each need two increments; afterwards predictions are perfect.
    for (_ <- 0 until 500) b.branch(site, taken = true)
    assert(b.mispredicts <= 20, s"${b.mispredicts}")
    assert(b.branches == 500)
    val warm = b.mispredicts
    for (_ <- 0 until 500) b.branch(site, taken = true)
    assert(b.mispredicts == warm, "steady state must be mispredict-free")
  }

  test("never-taken branch predicts well from the start (counters init not-taken)") {
    val b = new BranchSim
    val site = BranchSim.site()
    for (_ <- 0 until 100) b.branch(site, taken = false)
    assert(b.mispredicts == 0)
  }

  test("strict alternation is learned via global history") {
    val b = new BranchSim
    val site = BranchSim.site()
    var i = 0
    while (i < 2000) { b.branch(site, i % 2 == 0); i += 1 }
    // after warm-up the 2-cycle pattern is captured by the 8-bit history
    assert(b.mispredicts < 100, s"${b.mispredicts} mispredicts")
  }

  test("random 50/50 branch mispredicts roughly half the time") {
    val b = new BranchSim
    val site = BranchSim.site()
    val rnd = new Random(42)
    for (_ <- 0 until 10000) b.branch(site, rnd.nextBoolean())
    assert(b.mispredicts > 3000 && b.mispredicts < 7000, s"${b.mispredicts}")
  }

  test("heavily-biased branch (90% taken) mispredicts near the bias rate") {
    val b = new BranchSim
    val site = BranchSim.site()
    val rnd = new Random(7)
    for (_ <- 0 until 10000) b.branch(site, rnd.nextInt(10) != 0)
    assert(b.mispredicts < 2500, s"${b.mispredicts}")
  }

  test("a site's id is fixed by its name") {
    assert(BranchSim.site("X.a") == BranchSim.site("X.a"))
    assert(BranchSim.site("X.a") != BranchSim.site("X.b"))
  }

  // Every site is declared as `BranchSim.site("<Owner>.<branch>")` in
  // src/main/scala; a computed name would escape this check, so it is
  // rejected too.
  test("every site id the engines use is distinct") {
    val files = {
      val s = java.nio.file.Files.walk(java.nio.file.Paths.get("src/main/scala"))
      try s.iterator.asScala.filter(_.toString.endsWith(".scala")).toList finally s.close()
    }
    val calls = files.flatMap { f =>
      "BranchSim\\.site\\(([^)]*)\\)".r.findAllMatchIn(java.nio.file.Files.readString(f)).map(_.group(1)).toList
    }
    val names = calls.map { c =>
      assert(c.matches("\"[A-Za-z0-9]+\\.[A-Za-z0-9]+\""), s"site name must be a literal Owner.branch: $c")
      c.drop(1).dropRight(1)
    }
    assert(names.size >= 30, names)
    assert(names.distinct.size == names.size, names.diff(names.distinct))
    assert(names.map(BranchSim.site(_)).distinct.size == names.size, "two site names hash to one id")
  }
}
