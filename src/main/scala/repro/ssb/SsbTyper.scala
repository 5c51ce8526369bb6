package repro.ssb

import repro.core._
import repro.queries.QueryOut
import repro.ssb.SsbPlans.DimBuild
import repro.typer.TyperOps

/** Typer (fused data-centric) implementations of SSB Q1.1/Q2.1/Q3.1/Q4.1
  * (§4.4): filtered dimension builds, then one fused probe loop over
  * lineorder per query.
  */
object SsbTyper {
  private val sYear = BranchSim.site("SsbTyper.year"); private val sDisc1 = BranchSim.site("SsbTyper.disc1")
  private val sDisc2 = BranchSim.site("SsbTyper.disc2"); private val sQty = BranchSim.site("SsbTyper.qty")
  private val sDHit = BranchSim.site("SsbTyper.dHit"); private val sPHit = BranchSim.site("SsbTyper.pHit")
  private val sSHit = BranchSim.site("SsbTyper.sHit"); private val sCHit = BranchSim.site("SsbTyper.cHit")
  private val sCat = BranchSim.site("SsbTyper.cat"); private val sReg = BranchSim.site("SsbTyper.reg")
  private val sMfgr = BranchSim.site("SsbTyper.mfgr")

  /** Run dimension build `b` as one fused loop; `site` is its filter branch. */
  private def buildDim(b: DimBuild, site: Int, p: Prof): Unit = {
    val ht = b.ht; val disp = b.disp; val key = b.key; val payload = b.payload
    val filterCol = b.filter; val lo = b.lo; val hi = b.hi
    if (p ne null) p.enterLoop(22 + 2 * payload.length)
    var m = disp.next()
    while (m != null) {
      var i = m.startI
      while (i < m.endI) {
        var keep = true
        if (filterCol ne null) {
          if (p ne null) p.load(filterCol.addr + 8L * i)
          val v = filterCol.data(i)
          keep = v >= lo && v <= hi
          if (p ne null) { p.ops(1); p.branch(site, keep) }
        }
        if (keep) {
          val k = key.data(i)
          if (p ne null) { p.load(key.addr + 8L * i); p.ops(Hash.crcCost) }
          val e = ht.reserve(p)
          ht.setSlot(e, 0, k, p)
          var s = 0
          while (s < payload.length) {
            if (p ne null) p.load(payload(s).addr + 8L * i)
            ht.setSlot(e, 1 + s, payload(s).data(i), p)
            s += 1
          }
          ht.publish(e, Hash.crc(k), p)
        }
        i += 1
      }
      m = disp.next()
    }
    if (p ne null) { p.loop(key.size); p.exitLoop() }
  }

  def q11(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val plan = new SsbPlans.Q11(d)
    Morsel.run(threads) { ctx =>
      val lo = plan.lo; val loDate = plan.loDate; val loDisc = plan.loDisc
      val loQty = plan.loQty; val loEp = plan.loEp
      val htD = plan.dimD.ht; val dispL = plan.dispL
      buildDim(plan.dimD, sYear, p)
      ctx.barrier()
      var sum = 0L; var hits = 0L
      if (p ne null) p.enterLoop(40)
      var m = dispL.next()
      while (m != null) {
        var i = m.startI
        while (i < m.endI) {
          if (p ne null) p.load(loDisc.addr + 8L * i)
          val dc = loDisc.data(i)
          val c1 = dc >= 1
          if (p ne null) p.branch(sDisc1, c1)
          if (c1) {
            val c2 = dc <= 3
            if (p ne null) { p.ops(1); p.branch(sDisc2, c2) }
            if (c2) {
              if (p ne null) p.load(loQty.addr + 8L * i)
              val c3 = loQty.data(i) < 25
              if (p ne null) p.branch(sQty, c3)
              if (c3) {
                val dk = loDate.data(i)
                if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
                val hit = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
                if (p ne null) p.branch(sDHit, hit >= 0)
                if (hit >= 0) {
                  if (p ne null) { p.load(loEp.addr + 8L * i); p.ops(2) }
                  sum += loEp.data(i) * dc
                  hits += 1
                }
              }
            }
          }
          i += 1
        }
        m = dispL.next()
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      plan.add(sum, hits)
    }
    plan.result
  }

  def q21(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val plan = new SsbPlans.Q21(d, threads)
    Morsel.run(threads) { ctx =>
      val lo = plan.lo; val loDate = plan.loDate; val loPart = plan.loPart
      val loSupp = plan.loSupp; val loRev = plan.loRev
      val htD = plan.dimD.ht; val htP = plan.dimP.ht; val htS = plan.dimS.ht
      val dispL = plan.dispL
      buildDim(plan.dimD, 0, p)
      buildDim(plan.dimP, sCat, p)
      buildDim(plan.dimS, sReg, p)
      ctx.barrier()
      val agg = plan.shared.local(ctx.workerId)
      val keyRow = new Array[Long](2)
      if (p ne null) p.enterLoop(90)
      var m = dispL.next()
      while (m != null) {
        var i = m.startI
        while (i < m.endI) {
          val pk = loPart.data(i)
          if (p ne null) { p.load(loPart.addr + 8L * i); p.ops(Hash.crcCost) }
          val eP = TyperOps.probe1(htP, Hash.crc(pk), pk, p)
          if (p ne null) p.branch(sPHit, eP >= 0)
          if (eP >= 0) {
            val sk = loSupp.data(i)
            if (p ne null) { p.load(loSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              val dk = loDate.data(i)
              if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
              val eD = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
              if (p ne null) p.branch(sDHit, eD >= 0)
              if (eD >= 0) {
                keyRow(0) = htD.getSlot(eD, 1, p) // year
                keyRow(1) = htP.getSlot(eP, 1, p) // brand1 code
                if (p ne null) { p.load(loRev.addr + 8L * i); p.ops(Hash.crc2Cost) }
                val g = agg.findOrInsert(Hash.crc2(keyRow(0), keyRow(1)), keyRow, 0, p)
                agg.addToValue(g, 0, loRev.data(i), p)
              }
            }
          }
          i += 1
        }
        m = dispL.next()
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      ctx.barrier()
      plan.mergeAndEmit(ctx.workerId, p)
    }
    plan.result
  }

  def q31(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val plan = new SsbPlans.Q31(d, threads)
    Morsel.run(threads) { ctx =>
      val lo = plan.lo; val loDate = plan.loDate; val loSupp = plan.loSupp
      val loCust = plan.loCust; val loRev = plan.loRev
      val htD = plan.dimD.ht; val htS = plan.dimS.ht; val htC = plan.dimC.ht
      val dispL = plan.dispL
      buildDim(plan.dimD, sYear, p)
      buildDim(plan.dimS, sReg, p)
      buildDim(plan.dimC, sReg, p)
      ctx.barrier()
      val agg = plan.shared.local(ctx.workerId)
      val keyRow = new Array[Long](3)
      if (p ne null) p.enterLoop(95)
      var m = dispL.next()
      while (m != null) {
        var i = m.startI
        while (i < m.endI) {
          val ck = loCust.data(i)
          if (p ne null) { p.load(loCust.addr + 8L * i); p.ops(Hash.crcCost) }
          val eC = TyperOps.probe1(htC, Hash.crc(ck), ck, p)
          if (p ne null) p.branch(sCHit, eC >= 0)
          if (eC >= 0) {
            val sk = loSupp.data(i)
            if (p ne null) { p.load(loSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              val dk = loDate.data(i)
              if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
              val eD = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
              if (p ne null) p.branch(sDHit, eD >= 0)
              if (eD >= 0) {
                keyRow(0) = htC.getSlot(eC, 1, p)
                keyRow(1) = htS.getSlot(eS, 1, p)
                keyRow(2) = htD.getSlot(eD, 1, p)
                if (p ne null) { p.load(loRev.addr + 8L * i); p.ops(2 * Hash.crc2Cost) }
                val g = agg.findOrInsert(
                  Hash.crc2(Hash.crc2(keyRow(0), keyRow(1)), keyRow(2)), keyRow, 0, p)
                agg.addToValue(g, 0, loRev.data(i), p)
              }
            }
          }
          i += 1
        }
        m = dispL.next()
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      ctx.barrier()
      plan.mergeAndEmit(ctx.workerId, p)
    }
    plan.result
  }

  def q41(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val plan = new SsbPlans.Q41(d, threads)
    Morsel.run(threads) { ctx =>
      val lo = plan.lo; val pt = plan.pt; val loDate = plan.loDate; val loPart = plan.loPart
      val loSupp = plan.loSupp; val loCust = plan.loCust
      val loRev = plan.loRev; val loCost = plan.loCost
      val m1 = plan.mfgr1; val m2 = plan.mfgr2
      val htD = plan.dimD.ht; val htP = plan.htP; val htS = plan.dimS.ht; val htC = plan.dimC.ht
      val dispP = plan.dispP; val dispL = plan.dispL
      buildDim(plan.dimD, 0, p)
      // part: mfgr IN (m1, m2) — fused loop with a two-way equality
      locally {
        val key = plan.pKey; val mf = plan.pMfgr
        if (p ne null) p.enterLoop(24)
        var m = dispP.next()
        while (m != null) {
          var i = m.startI
          while (i < m.endI) {
            if (p ne null) p.load(mf.addr + 8L * i)
            val v = mf.data(i)
            val keep = v == m1 || v == m2
            if (p ne null) { p.ops(1); p.branch(sMfgr, keep) }
            if (keep) {
              val k = key.data(i)
              if (p ne null) { p.load(key.addr + 8L * i); p.ops(Hash.crcCost) }
              val e = htP.reserve(p); htP.setSlot(e, 0, k, p); htP.publish(e, Hash.crc(k), p)
            }
            i += 1
          }
          m = dispP.next()
        }
        if (p ne null) { p.loop(pt.numRows); p.exitLoop() }
      }
      buildDim(plan.dimS, sReg, p)
      buildDim(plan.dimC, sReg, p)
      ctx.barrier()
      val agg = plan.shared.local(ctx.workerId)
      val keyRow = new Array[Long](2)
      if (p ne null) p.enterLoop(110)
      var m = dispL.next()
      while (m != null) {
        var i = m.startI
        while (i < m.endI) {
          val ck = loCust.data(i)
          if (p ne null) { p.load(loCust.addr + 8L * i); p.ops(Hash.crcCost) }
          val eC = TyperOps.probe1(htC, Hash.crc(ck), ck, p)
          if (p ne null) p.branch(sCHit, eC >= 0)
          if (eC >= 0) {
            val sk = loSupp.data(i)
            if (p ne null) { p.load(loSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              val pk = loPart.data(i)
              if (p ne null) { p.load(loPart.addr + 8L * i); p.ops(Hash.crcCost) }
              val eP = TyperOps.probe1(htP, Hash.crc(pk), pk, p)
              if (p ne null) p.branch(sPHit, eP >= 0)
              if (eP >= 0) {
                val dk = loDate.data(i)
                if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
                val eD = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
                if (eD >= 0) {
                  keyRow(0) = htD.getSlot(eD, 1, p)
                  keyRow(1) = htC.getSlot(eC, 1, p)
                  if (p ne null) {
                    p.load(loRev.addr + 8L * i); p.load(loCost.addr + 8L * i)
                    p.ops(1 + Hash.crc2Cost)
                  }
                  val g = agg.findOrInsert(Hash.crc2(keyRow(0), keyRow(1)), keyRow, 0, p)
                  agg.addToValue(g, 0, loRev.data(i) - loCost.data(i), p)
                }
              }
            }
          }
          i += 1
        }
        m = dispL.next()
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      ctx.barrier()
      plan.mergeAndEmit(ctx.workerId, p)
    }
    plan.result
  }

  val all: Map[String, (SsbDataSet, Int, Prof) => QueryOut] = Map(
    "q1.1" -> (q11(_, _, _)), "q2.1" -> (q21(_, _, _)),
    "q3.1" -> (q31(_, _, _)), "q4.1" -> (q41(_, _, _)))
}
