package repro.typer

import repro.core._
import repro.queries.{QueryOut, TpchConsts, TpchData, TpchPlans}

/** Typer TPC-H Q6: fused selective scan with *branch-free* predication —
  * the paper's Typer evaluates Q6's selection without branches (footnote 8:
  * "Typer's branch-free selection implementation consumes more memory
  * bandwidth"), so every predicate column is loaded unconditionally and the
  * qualifying row's revenue is accumulated under a 0/1 mask.
  */
object TyperQ6 {

  def run(d: TpchData, threads: Int, p: Prof): QueryOut = {
    val plan = new TpchPlans.Q6(d)
    import TpchConsts._

    Morsel.run(threads) { ctx =>
      val li = plan.li; val sd = plan.sd; val disc = plan.disc
      val qty = plan.qty; val ep = plan.ep; val disp = plan.disp
      var sum = 0L
      var hits = 0L
      if (p ne null) p.enterLoop(16)
      var m = disp.next()
      while (m != null) {
        var i = m.startI
        while (i < m.endI) {
          val s = sd.data(i)
          val dc = disc.data(i)
          val q = qty.data(i)
          val e = ep.data(i)
          if (p ne null) {
            p.load(sd.addr + 8L * i); p.load(disc.addr + 8L * i)
            p.load(qty.addr + 8L * i); p.load(ep.addr + 8L * i)
            p.ops(8) // five compares folded to a mask + mul + masked add
          }
          val mask =
            (if (s >= q6DateLo && s < q6DateHi &&
                 dc >= q6DiscLo && dc <= q6DiscHi && q < q6QtyMax) 1L else 0L)
          sum += mask * (e * dc)
          hits += mask
          i += 1
        }
        m = disp.next()
      }
      if (p ne null) { p.loop(li.numRows); p.exitLoop() }
      plan.add(sum, hits)
    }
    plan.result
  }
}
