package repro.queries

import repro.core._
import repro.queries.QueryOut.L

/** One plan per TPC-H-lite query, built per run and shared by Typer
  * ([[repro.typer]]) and Tectorwise ([[repro.tw.queries]]): inputs,
  * dictionary codes, hash tables and aggregation state sized once,
  * dispensers, schema and result decoding. Each engine supplies only the
  * pipeline bodies between barriers.
  */
object TpchPlans {

  /** Q1: scan lineitem, aggregate by (returnflag, linestatus). */
  final class Q1(d: TpchData, threads: Int) extends GroupByPlan(Q1.schema,
      new SharedAgg(2, 5, Array(AggOp.Sum, AggOp.Sum, AggOp.Sum, AggOp.Sum, AggOp.Sum), threads, 16)) {
    val li = d.lineitem
    val sd = li("l_shipdate"); val rf = li("l_returnflag"); val ls = li("l_linestatus")
    val qty = li("l_quantity_c"); val ep = li("l_extendedprice_c")
    val disc = li("l_discount_c"); val tax = li("l_tax_c")
    val disp = Morsel.scanDispenser(li, 7)

    protected def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
      rf.dict(fin.key(e, 0).toInt), ls.dict(fin.key(e, 1).toInt),
      L(fin.value(e, 0)), L(fin.value(e, 1)), L(fin.value(e, 2)),
      L(fin.value(e, 3)), L(fin.value(e, 4)))
  }

  object Q1 {
    val schema: Vector[OutCol] = Vector(
      OutCol("l_returnflag", isString = true), OutCol("l_linestatus", isString = true),
      OutCol("sum_qty"), OutCol("sum_base"), OutCol("sum_disc_price"),
      OutCol("sum_charge"), OutCol("count_order"))
  }

  /** Q6: selective scan of lineitem into one revenue sum. */
  final class Q6(d: TpchData) extends SumPlan("revenue") {
    val li = d.lineitem
    val sd = li("l_shipdate"); val disc = li("l_discount_c")
    val qty = li("l_quantity_c"); val ep = li("l_extendedprice_c")
    val disp = Morsel.scanDispenser(li, 4)
  }

  /** Q3: customer → HT_c; orders ⋈ HT_c → HT_o; lineitem ⋈ HT_o, aggregate
    * revenue by (orderkey, orderdate, shippriority).
    */
  final class Q3(d: TpchData, threads: Int) extends GroupByPlan(Vector(
      OutCol("l_orderkey"), OutCol("o_orderdate", isString = true),
      OutCol("o_shippriority"), OutCol("revenue")),
      new SharedAgg(3, 1, Array(AggOp.Sum), threads, 1024)) {
    val cu = d.customer; val or = d.orders; val li = d.lineitem
    val cKey = cu("c_custkey"); val cSeg = cu("c_mktsegment")
    val oKey = or("o_orderkey"); val oCust = or("o_custkey")
    val oDate = or("o_orderdate"); val oPrio = or("o_shippriority")
    val lKey = li("l_orderkey"); val lDate = li("l_shipdate")
    val lEp = li("l_extendedprice_c"); val lDisc = li("l_discount_c")
    val segCode = d.code(cu, "c_mktsegment", TpchConsts.q3Segment)

    val htC = new HashTable(1, cu.numRows, cu.numRows / 4)            // custkey
    val htO = new HashTable(3, or.numRows, or.numRows / 2)            // orderkey, date, prio
    val dispC = Morsel.scanDispenser(cu, 2)
    val dispO = Morsel.scanDispenser(or, 4)
    val dispL = Morsel.scanDispenser(li, 4)

    protected def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
      L(fin.key(e, 0)), oDate.decodeValue(fin.key(e, 1)),
      L(fin.key(e, 2)), L(fin.value(e, 0)))
  }

  /** Q9: five builds (part filtered on color, supplier, partsupp, orders,
    * nation), one probe pipeline over lineitem, profit by (nation, year).
    */
  final class Q9(d: TpchData, threads: Int) extends GroupByPlan(Vector(
      OutCol("nation", isString = true), OutCol("o_year"), OutCol("amount")),
      new SharedAgg(2, 1, Array(AggOp.Sum), threads, 256)) {
    val pt = d.part; val su = d.supplier; val na = d.nation
    val ps = d.partsupp; val or = d.orders; val li = d.lineitem
    val pKey = pt("p_partkey"); val pColor = pt("p_color")
    val sKey = su("s_suppkey"); val sNat = su("s_nationkey")
    val nKey = na("n_nationkey"); val nName = na("n_name")
    val psP = ps("ps_partkey"); val psS = ps("ps_suppkey"); val psC = ps("ps_supplycost_c")
    val oKey = or("o_orderkey"); val oDate = or("o_orderdate")
    val lOrd = li("l_orderkey"); val lPart = li("l_partkey"); val lSupp = li("l_suppkey")
    val lQty = li("l_quantity_c"); val lEp = li("l_extendedprice_c"); val lDisc = li("l_discount_c")
    val colorCode = d.code(pt, "p_color", TpchConsts.q9Color)

    val htP = new HashTable(1, pt.numRows, pt.numRows / 8)
    val htS = new HashTable(2, su.numRows)       // suppkey → nationkey
    val htPs = new HashTable(3, ps.numRows)      // (partkey, suppkey) → cost
    val htO = new HashTable(2, or.numRows)       // orderkey → year
    val htN = new HashTable(2, na.numRows)       // nationkey → name code
    val dispP = Morsel.scanDispenser(pt, 2)
    val dispS = Morsel.scanDispenser(su, 2)
    val dispPs = Morsel.scanDispenser(ps, 3)
    val dispO = Morsel.scanDispenser(or, 2)
    val dispN = Morsel.scanDispenser(na, 2)
    val dispL = Morsel.scanDispenser(li, 6)

    protected def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
      nName.dict(fin.key(e, 0).toInt), L(fin.key(e, 1)), L(fin.value(e, 0)))
  }

  /** Q18: aggregate lineitem by orderkey, HAVING sum(qty) > τ into HT_qual;
    * customer → HT_c; orders probe both and emit result rows.
    */
  final class Q18(d: TpchData, threads: Int) extends Plan(Vector(
      OutCol("c_custkey"), OutCol("o_orderkey"), OutCol("o_orderdate", isString = true),
      OutCol("o_totalprice_c"), OutCol("sum_qty"))) {
    val cu = d.customer; val or = d.orders; val li = d.lineitem
    val cKey = cu("c_custkey")
    val oKey = or("o_orderkey"); val oCust = or("o_custkey")
    val oDate = or("o_orderdate"); val oTotal = or("o_totalprice_c")
    val lOrd = li("l_orderkey"); val lQty = li("l_quantity_c")

    val shared = new SharedAgg(1, 1, Array(AggOp.Sum), threads, or.numRows / math.max(1, threads) + 16)
    val htQual = new HashTable(2, or.numRows, or.numRows / 32 + 16)     // qualifying orderkey → sum_qty
    val htC = new HashTable(1, cu.numRows)
    val dispL = Morsel.scanDispenser(li, 2)
    val dispC = Morsel.scanDispenser(cu, 1)
    val dispO = Morsel.scanDispenser(or, 4)

    /** Add one result row; `date` is an `o_orderdate` value. */
    def emit(custKey: Long, orderKey: Long, date: Long, total: Long, sumQty: Long): Unit = {
      out.add(Array[Any](L(custKey), L(orderKey), oDate.decodeValue(date), L(total), L(sumQty)))
      ()
    }
  }
}
