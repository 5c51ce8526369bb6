package repro.tw.queries

import repro.core._
import repro.queries.{QueryOut, TpchConsts, TpchData, TpchPlans}
import repro.tw._

/** Tectorwise TPC-H Q3: vectorized build of HT(custkey) and
  * HT(orderkey → date, prio), then the Fig. 2b probe loop over lineitem and
  * a vectorized group-by on (orderkey, orderdate, shippriority).
  */
object TwQ3 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int): QueryOut = {
    val plan = new TpchPlans.Q3(d, threads)
    Morsel.run(threads) { ctx =>
      val cKey = plan.cKey; val cSeg = plan.cSeg
      val oKey = plan.oKey; val oCust = plan.oCust; val oDate = plan.oDate; val oPrio = plan.oPrio
      val lKey = plan.lKey; val lDate = plan.lDate; val lEp = plan.lEp; val lDisc = plan.lDisc
      val segCode = plan.segCode; val cutoff = TpchConsts.q3Date
      val htC = plan.htC; val htO = plan.htO
      val dispC = plan.dispC; val dispO = plan.dispO; val dispL = plan.dispL
      val sel = new Sel(vecSize)
      val kV = new Vec(vecSize); val hV = new Vec(vecSize)

      // Pipeline 1: customer → HT_c
      var m = dispC.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          val k = Prim.selEqC(cSeg, base, n, segCode, sel, p)
          if (k > 0) {
            Prim.gather(cKey, base, sel, kV, p)
            Prim.hashMurmur(kV, k, hV, p)
            TWJoin.buildInsert(htC, hV, Array(kV), k, p)
          }
          base += n
        }
        m = dispC.next()
      }
      ctx.barrier()

      // Pipeline 2: orders ⋈ HT_c → HT_o
      val probeC = new TWProbe(htC, 1, vecSize)
      val ocV = new Vec(vecSize); val okV = new Vec(vecSize)
      val odV = new Vec(vecSize); val opV = new Vec(vecSize)
      val mokV = new Vec(vecSize); val modV = new Vec(vecSize); val mopV = new Vec(vecSize)
      val h2V = new Vec(vecSize)
      m = dispO.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          val k = Prim.selLtC(oDate, base, n, cutoff, sel, p)
          if (k > 0) {
            Prim.gather(oCust, base, sel, ocV, p)
            Prim.gather(oKey, base, sel, okV, p)
            Prim.gather(oDate, base, sel, odV, p)
            Prim.gather(oPrio, base, sel, opV, p)
            Prim.hashMurmur(ocV, k, hV, p)
            val nm = probeC.probe(hV, Array(ocV), k, p)
            if (nm > 0) {
              probeC.gatherProbe(okV, mokV, p)
              probeC.gatherProbe(odV, modV, p)
              probeC.gatherProbe(opV, mopV, p)
              Prim.hashMurmur(mokV, nm, h2V, p)
              TWJoin.buildInsert(htO, h2V, Array(mokV, modV, mopV), nm, p)
            }
          }
          base += n
        }
        m = dispO.next()
      }
      ctx.barrier()

      // Pipeline 3: lineitem ⋈ HT_o → vectorized group-by
      val agg = new TWAgg(plan.shared.local(ctx.workerId), vecSize)
      val probeO = new TWProbe(htO, 1, vecSize)
      val lkV = new Vec(vecSize); val epV = new Vec(vecSize); val discV = new Vec(vecSize)
      val mlkV = new Vec(vecSize); val mepV = new Vec(vecSize); val mdiscV = new Vec(vecSize)
      val bdateV = new Vec(vecSize); val bprioV = new Vec(vecSize)
      val t1 = new Vec(vecSize); val revV = new Vec(vecSize); val hgV = new Vec(vecSize)
      m = dispL.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          val k = Prim.selGtC(lDate, base, n, cutoff, sel, p)
          if (k > 0) {
            Prim.gather(lKey, base, sel, lkV, p)
            Prim.gather(lEp, base, sel, epV, p)
            Prim.gather(lDisc, base, sel, discV, p)
            Prim.hashMurmur(lkV, k, hV, p)
            val nm = probeO.probe(hV, Array(lkV), k, p)
            if (nm > 0) {
              probeO.gatherProbe(lkV, mlkV, p)
              probeO.gatherProbe(epV, mepV, p)
              probeO.gatherProbe(discV, mdiscV, p)
              probeO.gatherBuild(1, bdateV, p)
              probeO.gatherBuild(2, bprioV, p)
              Prim.hashMurmur(mlkV, nm, hgV, p)
              Prim.hashCombine(hgV, bdateV, nm, p)
              Prim.hashCombine(hgV, bprioV, nm, p)
              agg.findGroups(hgV, Array(mlkV, bdateV, bprioV), nm, p)
              Prim.mapRsubC(mdiscV, 100L, nm, t1, p)
              Prim.mapMul(mepV, t1, nm, revV, p)
              agg.sumInto(0, revV, nm, p)
            }
          }
          base += n
        }
        m = dispL.next()
      }
      ctx.barrier()
      plan.mergeAndEmit(ctx.workerId, p)
    }
    plan.result
  }
}
