package repro.volcano

import repro.core.Prof
import repro.queries.{OutCol, QueryOut, TpchConsts, TpchData, TpchPlans}
import repro.queries.QueryOut.L

/** Volcano (tuple-at-a-time interpreted) implementations of Q1 and Q6 —
  * the classical baseline both modern paradigms replace (Table 6, §4.3's
  * vector-size-1 endpoint). Single-threaded, like the taxonomy comparison.
  */
object VolcanoTpch {

  def q1(d: TpchData, p: Prof): QueryOut = {
    val li = d.lineitem
    val cols = Array(
      li("l_shipdate"), li("l_returnflag"), li("l_linestatus"),
      li("l_quantity_c"), li("l_extendedprice_c"), li("l_discount_c"), li("l_tax_c"))
    // row layout: 0=shipdate 1=rf 2=ls 3=qty 4=ep 5=disc 6=tax
    val plan = new VolHashAgg(
      new VolFilter(new VolScan(cols), BinOp('L', ColRef(0), Const(TpchConsts.q1Cutoff))),
      keyIdx = Array(1, 2),
      sums = Array(
        ColRef(3),
        ColRef(4),
        BinOp('*', ColRef(4), BinOp('-', Const(100), ColRef(5))),
        BinOp('*', BinOp('*', ColRef(4), BinOp('-', Const(100), ColRef(5))),
                   BinOp('+', Const(100), ColRef(6)))))
    plan.open()
    val rows = Vector.newBuilder[Array[Any]]
    var r = plan.next(p)
    while (r != null) {
      rows += Array[Any](
        li("l_returnflag").dict(r(0).toInt), li("l_linestatus").dict(r(1).toInt),
        L(r(2)), L(r(3)), L(r(4)), L(r(5)), L(r(6)))
      r = plan.next(p)
    }
    QueryOut(TpchPlans.Q1.schema, rows.result())
  }

  def q6(d: TpchData, p: Prof): QueryOut = {
    val li = d.lineitem
    val cols = Array(li("l_shipdate"), li("l_discount_c"), li("l_quantity_c"), li("l_extendedprice_c"))
    import TpchConsts._
    // row layout: 0=shipdate 1=disc 2=qty 3=ep
    val pred =
      BinOp('&', BinOp('G', ColRef(0), Const(q6DateLo)),
      BinOp('&', BinOp('<', ColRef(0), Const(q6DateHi)),
      BinOp('&', BinOp('G', ColRef(1), Const(q6DiscLo)),
      BinOp('&', BinOp('L', ColRef(1), Const(q6DiscHi)),
                 BinOp('<', ColRef(2), Const(q6QtyMax))))))
    val plan = new VolHashAgg(
      new VolFilter(new VolScan(cols), pred),
      keyIdx = Array.empty,
      sums = Array(BinOp('*', ColRef(3), ColRef(1))))
    plan.open()
    var revenue: Any = null
    var r = plan.next(p)
    while (r != null) {
      if (r(1) > 0) revenue = L(r(0)) // count > 0 ⇒ non-NULL sum
      r = plan.next(p)
    }
    QueryOut(Vector(OutCol("revenue")), Vector(Array[Any](revenue)))
  }
}
