package repro.core

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.{AtomicLong, AtomicReference}

/** Morsel-driven parallelism (§6.1), as implemented in both engines.
  *
  * A query runs as a set of workers that pull fixed-size morsels (row ranges)
  * from atomic [[Morsel.Dispenser]]s, share per-operator state (e.g. the
  * build-side [[HashTable]]), and synchronize at pipeline boundaries with a
  * barrier — "first all workers consume the build side ... only after that,
  * the probe phase can start".
  */
object Morsel {

  val DefaultMorselRows = 16384

  /** Dispenser for a base-table scan reading `colsRead` columns (8 B each);
    * the byte volume is what the table's throttle, if any, charges per morsel.
    */
  def scanDispenser(t: ColTable, colsRead: Int): Dispenser =
    new Dispenser(t.numRows, DefaultMorselRows, 8 * colsRead, t.throttle)

  /** Per-worker context. */
  final class Ctx(val workerId: Int, val numWorkers: Int, b: CyclicBarrier) {
    /** Pipeline-breaking barrier: all workers arrive before any proceeds. */
    def barrier(): Unit = { b.await(); () }
  }

  /** Atomic work dispenser over `[0, n)` in `morselRows` chunks (each charged
    * `rowBytes` per row to `throttle`, if any).
    */
  final class Dispenser(val n: Long, val morselRows: Int = DefaultMorselRows,
                        val rowBytes: Int = 0, throttle: Throttle = null) {
    private val cursor = new AtomicLong(0)
    /** Next morsel as (start, endExclusive), or null when exhausted. */
    def next(): Range = {
      val s = cursor.getAndAdd(morselRows)
      if (s >= n) return null
      val r = new Range(s, math.min(n, s + morselRows))
      if (throttle ne null) throttle.consume((r.end - r.start) * rowBytes)
      r
    }
  }

  final class Range(val start: Long, val end: Long) {
    def startI: Int = start.toInt
    def endI: Int = end.toInt
  }

  /** Run `task` on `threads` workers; propagates the first worker failure.
    *
    * With `threads == 1` the task runs on the calling thread — this is the
    * mode used for counter ([[Prof]]) experiments, which are single-threaded
    * like the paper's Table 1.
    */
  def run(threads: Int)(task: Ctx => Unit): Unit = {
    require(threads >= 1, s"threads=$threads")
    val barrier = new CyclicBarrier(threads)
    if (threads == 1) { task(new Ctx(0, 1, barrier)); return }
    val failure = new AtomicReference[Throwable](null)
    val workers = (0 until threads).map { id =>
      new Thread(() => {
        try task(new Ctx(id, threads, barrier))
        catch { case t: Throwable => failure.compareAndSet(null, t); () }
      }, s"morsel-$id")
    }
    workers.foreach(_.start())
    // Supervise: once any worker fails, peers parked at the barrier (or
    // arriving later) can never complete the generation — interrupt them
    // until everyone is down. (Resetting the barrier instead would race:
    // a peer arriving after the reset waits on a fresh generation forever.)
    var alive = true
    while (alive) {
      alive = false
      workers.foreach { w => w.join(50); if (w.isAlive) alive = true }
      if (alive && failure.get != null) workers.foreach(_.interrupt())
    }
    val t = failure.get
    if (t ne null) throw new RuntimeException(s"morsel worker failed: ${t.getMessage}", t)
  }
}
