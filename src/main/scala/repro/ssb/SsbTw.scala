package repro.ssb

import repro.core._
import repro.queries.QueryOut
import repro.ssb.SsbPlans.DimBuild
import repro.tw._

/** Tectorwise (vectorized) implementations of SSB Q1.1/Q2.1/Q3.1/Q4.1:
  * primitive-based dimension builds, then probe cascades over lineorder with
  * selection-vector composition (same operator shapes as the TPC-H TW
  * queries).
  */
object SsbTw {

  /** Run dimension build `b` vectorized: the filter as one equality or two
    * range selection primitives, then gather + hash + insert per batch.
    */
  private def buildDimVec(b: DimBuild, vecSize: Int, p: Prof): Unit = {
    val ht = b.ht; val disp = b.disp; val key = b.key; val payload = b.payload
    val filterCol = b.filter; val lo = b.lo; val hi = b.hi
    val sel = new Sel(vecSize); val sel2 = new Sel(vecSize)
    val kV = new Vec(vecSize); val hV = new Vec(vecSize)
    val pV = payload.map(_ => new Vec(vecSize))
    var m = disp.next()
    while (m != null) {
      var base = m.startI
      while (base < m.endI) {
        val n = math.min(vecSize, m.endI - base)
        var k = n
        var useSel = false
        if (filterCol ne null) {
          if (lo == hi) k = Prim.selEqC(filterCol, base, n, lo, sel, p)
          else {
            k = Prim.selGeC(filterCol, base, n, lo, sel2, p)
            if (k > 0) k = Prim.selLeCSel(filterCol, base, sel2, hi, sel, p)
            else sel.n = 0
          }
          useSel = true
        }
        if (k > 0) {
          if (useSel) Prim.gather(key, base, sel, kV, p)
          else Prim.gatherDense(key, base, n, kV, p)
          var s = 0
          while (s < payload.length) {
            if (useSel) Prim.gather(payload(s), base, sel, pV(s), p)
            else Prim.gatherDense(payload(s), base, n, pV(s), p)
            s += 1
          }
          Prim.hashMurmur(kV, k, hV, p)
          TWJoin.buildInsert(ht, hV, kV +: pV, k, p)
        }
        base += n
      }
      m = disp.next()
    }
  }

  def q11(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int): QueryOut = {
    val plan = new SsbPlans.Q11(d)
    Morsel.run(threads) { ctx =>
      val loDate = plan.loDate; val loDisc = plan.loDisc
      val loQty = plan.loQty; val loEp = plan.loEp
      val htD = plan.dimD.ht; val dispL = plan.dispL
      buildDimVec(plan.dimD, vecSize, p)
      ctx.barrier()
      val s1 = new Sel(vecSize); val s2 = new Sel(vecSize); val s3 = new Sel(vecSize)
      val dkV = new Vec(vecSize); val hV = new Vec(vecSize)
      val epV = new Vec(vecSize); val dcV = new Vec(vecSize); val revV = new Vec(vecSize)
      val mepV = new Vec(vecSize); val mdcV = new Vec(vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      var sum = 0L; var hits = 0L
      var m = dispL.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          var k = Prim.selGeC(loDisc, base, n, 1L, s1, p)
          if (k > 0) k = Prim.selLeCSel(loDisc, base, s1, 3L, s2, p)
          if (k > 0) k = Prim.selLtCSel(loQty, base, s2, 25L, s3, p)
          if (k > 0) {
            Prim.gather(loDate, base, s3, dkV, p)
            Prim.gather(loEp, base, s3, epV, p)
            Prim.gather(loDisc, base, s3, dcV, p)
            Prim.hashMurmur(dkV, k, hV, p)
            val nm = probeD.probe(hV, Array(dkV), k, p)
            if (nm > 0) {
              probeD.gatherProbe(epV, mepV, p)
              probeD.gatherProbe(dcV, mdcV, p)
              Prim.mapMul(mepV, mdcV, nm, revV, p)
              sum += Prim.sum(revV, nm, p)
              hits += nm
            }
          }
          base += n
        }
        m = dispL.next()
      }
      plan.add(sum, hits)
    }
    plan.result
  }

  def q21(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int): QueryOut = {
    val plan = new SsbPlans.Q21(d, threads)
    Morsel.run(threads) { ctx =>
      val loDate = plan.loDate; val loPart = plan.loPart
      val loSupp = plan.loSupp; val loRev = plan.loRev
      val htD = plan.dimD.ht; val htP = plan.dimP.ht; val htS = plan.dimS.ht
      val dispL = plan.dispL
      buildDimVec(plan.dimD, vecSize, p)
      buildDimVec(plan.dimP, vecSize, p)
      buildDimVec(plan.dimS, vecSize, p)
      ctx.barrier()
      val agg = new TWAgg(plan.shared.local(ctx.workerId), vecSize)
      val probeP = new TWProbe(htP, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize); val selC = new Sel(vecSize)
      val pkV = new Vec(vecSize); val skV = new Vec(vecSize); val dkV = new Vec(vecSize)
      val hV = new Vec(vecSize); val brandV = new Vec(vecSize); val brandV2 = new Vec(vecSize)
      val brandV3 = new Vec(vecSize); val yearV = new Vec(vecSize)
      val revV = new Vec(vecSize); val hgV = new Vec(vecSize)
      var m = dispL.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          Prim.gatherDense(loPart, base, n, pkV, p)
          Prim.hashMurmur(pkV, n, hV, p)
          val m1 = probeP.probe(hV, Array(pkV), n, p)
          if (m1 > 0) {
            probeP.gatherBuild(1, brandV, p)
            selA.n = m1; System.arraycopy(probeP.matchSel.a, 0, selA.a, 0, m1)
            Prim.gather(loSupp, base, selA, skV, p)
            Prim.hashMurmur(skV, m1, hV, p)
            val m2 = probeS.probe(hV, Array(skV), m1, p)
            if (m2 > 0) {
              probeS.gatherProbe(brandV, brandV2, p)
              Prim.composeSel(selA, probeS.matchSel, selB, p)
              Prim.gather(loDate, base, selB, dkV, p)
              Prim.hashMurmur(dkV, m2, hV, p)
              val m3 = probeD.probe(hV, Array(dkV), m2, p)
              if (m3 > 0) {
                probeD.gatherBuild(1, yearV, p)
                probeD.gatherProbe(brandV2, brandV3, p)
                Prim.composeSel(selB, probeD.matchSel, selC, p)
                Prim.gather(loRev, base, selC, revV, p)
                Prim.hashMurmur(yearV, m3, hgV, p)
                Prim.hashCombine(hgV, brandV3, m3, p)
                agg.findGroups(hgV, Array(yearV, brandV3), m3, p)
                agg.sumInto(0, revV, m3, p)
              }
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

  def q31(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int): QueryOut = {
    val plan = new SsbPlans.Q31(d, threads)
    Morsel.run(threads) { ctx =>
      val loDate = plan.loDate; val loSupp = plan.loSupp
      val loCust = plan.loCust; val loRev = plan.loRev
      val htD = plan.dimD.ht; val htS = plan.dimS.ht; val htC = plan.dimC.ht
      val dispL = plan.dispL
      buildDimVec(plan.dimD, vecSize, p)
      buildDimVec(plan.dimS, vecSize, p)
      buildDimVec(plan.dimC, vecSize, p)
      ctx.barrier()
      val agg = new TWAgg(plan.shared.local(ctx.workerId), vecSize)
      val probeC = new TWProbe(htC, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize); val selC = new Sel(vecSize)
      val ckV = new Vec(vecSize); val skV = new Vec(vecSize); val dkV = new Vec(vecSize)
      val hV = new Vec(vecSize)
      val cnV = new Vec(vecSize); val cnV2 = new Vec(vecSize); val cnV3 = new Vec(vecSize)
      val snV = new Vec(vecSize); val snV2 = new Vec(vecSize)
      val yearV = new Vec(vecSize)
      val revV = new Vec(vecSize); val hgV = new Vec(vecSize)
      var m = dispL.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          Prim.gatherDense(loCust, base, n, ckV, p)
          Prim.hashMurmur(ckV, n, hV, p)
          val m1 = probeC.probe(hV, Array(ckV), n, p)
          if (m1 > 0) {
            probeC.gatherBuild(1, cnV, p)
            selA.n = m1; System.arraycopy(probeC.matchSel.a, 0, selA.a, 0, m1)
            Prim.gather(loSupp, base, selA, skV, p)
            Prim.hashMurmur(skV, m1, hV, p)
            val m2 = probeS.probe(hV, Array(skV), m1, p)
            if (m2 > 0) {
              probeS.gatherBuild(1, snV, p)
              probeS.gatherProbe(cnV, cnV2, p)
              Prim.composeSel(selA, probeS.matchSel, selB, p)
              Prim.gather(loDate, base, selB, dkV, p)
              Prim.hashMurmur(dkV, m2, hV, p)
              val m3 = probeD.probe(hV, Array(dkV), m2, p)
              if (m3 > 0) {
                probeD.gatherBuild(1, yearV, p)
                probeD.gatherProbe(cnV2, cnV3, p)
                probeD.gatherProbe(snV, snV2, p)
                Prim.composeSel(selB, probeD.matchSel, selC, p)
                Prim.gather(loRev, base, selC, revV, p)
                Prim.hashMurmur(cnV3, m3, hgV, p)
                Prim.hashCombine(hgV, snV2, m3, p)
                Prim.hashCombine(hgV, yearV, m3, p)
                agg.findGroups(hgV, Array(cnV3, snV2, yearV), m3, p)
                agg.sumInto(0, revV, m3, p)
              }
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

  def q41(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int): QueryOut = {
    val plan = new SsbPlans.Q41(d, threads)
    Morsel.run(threads) { ctx =>
      val loDate = plan.loDate; val loPart = plan.loPart
      val loSupp = plan.loSupp; val loCust = plan.loCust
      val loRev = plan.loRev; val loCost = plan.loCost
      val m1c = plan.mfgr1; val m2c = plan.mfgr2
      val htD = plan.dimD.ht; val htP = plan.htP; val htS = plan.dimS.ht; val htC = plan.dimC.ht
      val dispP = plan.dispP; val dispL = plan.dispL
      buildDimVec(plan.dimD, vecSize, p)
      // part: two-constant IN primitive
      locally {
        val sel = new Sel(vecSize); val kV = new Vec(vecSize); val hV = new Vec(vecSize)
        val key = plan.pKey; val mf = plan.pMfgr
        var m = dispP.next()
        while (m != null) {
          var base = m.startI
          while (base < m.endI) {
            val n = math.min(vecSize, m.endI - base)
            val k = Prim.selEq2C(mf, base, n, m1c, m2c, sel, p)
            if (k > 0) {
              Prim.gather(key, base, sel, kV, p)
              Prim.hashMurmur(kV, k, hV, p)
              TWJoin.buildInsert(htP, hV, Array(kV), k, p)
            }
            base += n
          }
          m = dispP.next()
        }
      }
      buildDimVec(plan.dimS, vecSize, p)
      buildDimVec(plan.dimC, vecSize, p)
      ctx.barrier()
      val agg = new TWAgg(plan.shared.local(ctx.workerId), vecSize)
      val probeC = new TWProbe(htC, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probeP = new TWProbe(htP, 1, vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize)
      val selC = new Sel(vecSize); val selD = new Sel(vecSize)
      val ckV = new Vec(vecSize); val skV = new Vec(vecSize)
      val pkV = new Vec(vecSize); val dkV = new Vec(vecSize)
      val hV = new Vec(vecSize)
      val cnV = new Vec(vecSize); val cnV2 = new Vec(vecSize)
      val cnV3 = new Vec(vecSize); val cnV4 = new Vec(vecSize)
      val yearV = new Vec(vecSize)
      val revV = new Vec(vecSize); val costV = new Vec(vecSize)
      val profV = new Vec(vecSize); val hgV = new Vec(vecSize)
      var m = dispL.next()
      while (m != null) {
        var base = m.startI
        while (base < m.endI) {
          val n = math.min(vecSize, m.endI - base)
          Prim.gatherDense(loCust, base, n, ckV, p)
          Prim.hashMurmur(ckV, n, hV, p)
          val k1 = probeC.probe(hV, Array(ckV), n, p)
          if (k1 > 0) {
            probeC.gatherBuild(1, cnV, p)
            selA.n = k1; System.arraycopy(probeC.matchSel.a, 0, selA.a, 0, k1)
            Prim.gather(loSupp, base, selA, skV, p)
            Prim.hashMurmur(skV, k1, hV, p)
            val k2 = probeS.probe(hV, Array(skV), k1, p)
            if (k2 > 0) {
              probeS.gatherProbe(cnV, cnV2, p)
              Prim.composeSel(selA, probeS.matchSel, selB, p)
              Prim.gather(loPart, base, selB, pkV, p)
              Prim.hashMurmur(pkV, k2, hV, p)
              val k3 = probeP.probe(hV, Array(pkV), k2, p)
              if (k3 > 0) {
                probeP.gatherProbe(cnV2, cnV3, p)
                Prim.composeSel(selB, probeP.matchSel, selC, p)
                Prim.gather(loDate, base, selC, dkV, p)
                Prim.hashMurmur(dkV, k3, hV, p)
                val k4 = probeD.probe(hV, Array(dkV), k3, p)
                if (k4 > 0) {
                  probeD.gatherBuild(1, yearV, p)
                  probeD.gatherProbe(cnV3, cnV4, p)
                  Prim.composeSel(selC, probeD.matchSel, selD, p)
                  Prim.gather(loRev, base, selD, revV, p)
                  Prim.gather(loCost, base, selD, costV, p)
                  Prim.mapSub(revV, costV, k4, profV, p)
                  Prim.hashMurmur(yearV, k4, hgV, p)
                  Prim.hashCombine(hgV, cnV4, k4, p)
                  agg.findGroups(hgV, Array(yearV, cnV4), k4, p)
                  agg.sumInto(0, profV, k4, p)
                }
              }
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

  def all(vecSize: Int = 1024): Map[String, (SsbDataSet, Int, Prof) => QueryOut] = Map(
    "q1.1" -> (q11(_, _, _, vecSize)), "q2.1" -> (q21(_, _, _, vecSize)),
    "q3.1" -> (q31(_, _, _, vecSize)), "q4.1" -> (q41(_, _, _, vecSize)))
}
