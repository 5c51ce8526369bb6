package repro.core

import java.util.concurrent.atomic.AtomicLongArray
import org.scalatest.funsuite.AnyFunSuite

class MorselSpec extends AnyFunSuite {

  test("dispenser covers the range exactly once") {
    val disp = new Morsel.Dispenser(100000, 1234)
    val seen = new AtomicLongArray(100000)
    Morsel.run(8) { _ =>
      var m = disp.next()
      while (m != null) {
        var i = m.startI
        while (i < m.endI) { seen.incrementAndGet(i); i += 1 }
        m = disp.next()
      }
    }
    for (i <- 0 until 100000) assert(seen.get(i) == 1, s"row $i")
  }

  test("dispenser handles n smaller than one morsel") {
    val disp = new Morsel.Dispenser(5, 1000)
    val m = disp.next()
    assert(m.startI == 0 && m.endI == 5)
    assert(disp.next() == null)
  }

  test("dispenser handles n == 0") {
    assert(new Morsel.Dispenser(0).next() == null)
  }

  test("single-threaded run executes on the calling thread") {
    val t = Thread.currentThread()
    var ran: Thread = null
    Morsel.run(1) { ctx => ran = Thread.currentThread(); assert(ctx.numWorkers == 1) }
    assert(ran eq t)
  }

  test("worker ids are distinct and complete") {
    val ids = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    Morsel.run(6) { ctx => ids.add(ctx.workerId); () }
    assert(ids.size == 6)
  }

  test("barrier separates phases: all phase-1 writes visible after barrier") {
    val n = 8
    val marks = new Array[Int](n)
    Morsel.run(n) { ctx =>
      marks(ctx.workerId) = 1
      ctx.barrier()
      for (i <- 0 until n) assert(marks(i) == 1, s"worker ${ctx.workerId} saw unfinished peer $i")
    }
  }

  test("worker exception propagates to the caller") {
    val ex = intercept[RuntimeException] {
      Morsel.run(4) { ctx =>
        if (ctx.workerId == 2) throw new IllegalStateException("boom")
        ctx.barrier() // peers must not hang
      }
    }
    assert(ex.getMessage.contains("boom"))
  }

  test("worker failing after the first barrier while peers wait at the second propagates") {
    val passed = new java.util.concurrent.atomic.AtomicInteger(0)
    val ex = intercept[RuntimeException] {
      Morsel.run(4) { ctx =>
        ctx.barrier()
        passed.incrementAndGet()
        if (ctx.workerId == 1) throw new IllegalStateException("late boom")
        ctx.barrier() // peers must not hang here
      }
    }
    assert(ex.getMessage.contains("late boom"))
    assert(passed.get == 4, "every worker got past the first barrier")
  }

  test("scanDispenser charges the io throttle per morsel") {
    val throttle = new Throttle(1e12) // effectively unlimited; just count bytes
    val t = new ColTable("t", 10000, Map("a" -> LongCol(new Array[Long](10000)))).throttled(throttle)
    val disp = Morsel.scanDispenser(t, 3)
    var m = disp.next()
    while (m != null) m = disp.next()
    assert(throttle.totalBytes == 10000L * 24)
  }

  test("scanDispenser with no throttle installed consumes nothing") {
    val t = new ColTable("t", 100, Map("a" -> LongCol(new Array[Long](100))))
    val disp = Morsel.scanDispenser(t, 2)
    var m = disp.next()
    while (m != null) m = disp.next() // must not NPE
  }
}
