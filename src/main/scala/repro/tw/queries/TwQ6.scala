package repro.tw.queries

import repro.core._
import repro.queries.{QueryOut, TpchConsts, TpchData, TpchPlans}
import repro.tw._

/** Tectorwise TPC-H Q6: a cascade of five selection primitives — the first
  * scans the full batch, the rest consume the shrinking selection vector
  * (the paper's §5.1 "sparse data loading" pattern) — then gather + multiply
  * + sum primitives.
  */
object TwQ6 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int): QueryOut = {
    val plan = new TpchPlans.Q6(d)
    import TpchConsts._

    Morsel.run(threads) { ctx =>
      val sd = plan.sd; val disc = plan.disc
      val qty = plan.qty; val ep = plan.ep; val disp = plan.disp
      val s1 = new Sel(vecSize); val s2 = new Sel(vecSize); val s3 = new Sel(vecSize)
      val s4 = new Sel(vecSize); val s5 = new Sel(vecSize)
      val epV = new Vec(vecSize); val discV = new Vec(vecSize); val revV = new Vec(vecSize)
      var sum = 0L; var hits = 0L

      var m = disp.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          var k = Prim.selGeC(sd, base, n, q6DateLo, s1, p)
          if (k > 0) k = Prim.selLtCSel(sd, base, s1, q6DateHi, s2, p)
          if (k > 0) k = Prim.selGeCSel(disc, base, s2, q6DiscLo, s3, p)
          if (k > 0) k = Prim.selLeCSel(disc, base, s3, q6DiscHi, s4, p)
          if (k > 0) k = Prim.selLtCSel(qty, base, s4, q6QtyMax, s5, p)
          if (k > 0) {
            Prim.gather(ep, base, s5, epV, p)
            Prim.gather(disc, base, s5, discV, p)
            Prim.mapMul(epV, discV, k, revV, p)
            sum += Prim.sum(revV, k, p)
            hits += k
          }
          base += n
        }
        m = disp.next()
      }
      plan.add(sum, hits)
    }
    plan.result
  }
}
