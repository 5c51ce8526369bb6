package repro.ssb

import repro.core._
import repro.queries.{GroupByPlan, OutCol, SumPlan}
import repro.queries.QueryOut.L

/** One plan per SSB-lite query, built per run and shared by [[SsbTyper]]
  * and [[SsbTw]]: filtered dimension builds, fact-table inputs, the
  * aggregation state, schema and result decoding. Each engine supplies only
  * the pipeline bodies between barriers.
  */
object SsbPlans {

  /** A dimension build: insert `key` → `payload` for every row whose
    * `filter` value lies in `[lo, hi]` (every row when `filter` is null).
    */
  final class DimBuild(val ht: HashTable, val disp: Morsel.Dispenser, val key: LongCol,
                       val payload: Array[LongCol], val filter: LongCol, val lo: Long, val hi: Long)

  /** q1.1: date(year 1993) → HT_d; lineorder filtered on discount and
    * quantity, probe HT_d, sum revenue.
    */
  final class Q11(d: SsbDataSet) extends SumPlan("revenue") {
    private val dd = d.date
    val lo = d.lineorder
    val loDate = lo("lo_orderdate"); val loDisc = lo("lo_discount")
    val loQty = lo("lo_quantity"); val loEp = lo("lo_extendedprice_c")
    val dimD = new DimBuild(new HashTable(1, dd.numRows), Morsel.scanDispenser(dd, 2),
      dd("d_datekey"), Array.empty, dd("d_year"), 1993, 1993)
    val dispL = Morsel.scanDispenser(lo, 4)
  }

  /** q2.1: revenue by (year, brand1) for category MFGR#12 and suppliers in
    * AMERICA.
    */
  final class Q21(d: SsbDataSet, threads: Int) extends GroupByPlan(Vector(
      OutCol("d_year"), OutCol("p_brand1", isString = true), OutCol("revenue")),
      new SharedAgg(2, 1, Array(AggOp.Sum), threads, 1024)) {
    private val dd = d.date; private val pt = d.part; private val su = d.supplier
    val lo = d.lineorder
    val loDate = lo("lo_orderdate"); val loPart = lo("lo_partkey")
    val loSupp = lo("lo_suppkey"); val loRev = lo("lo_revenue_c")
    private val catCode = d.code(pt, "p_category", "MFGR#12")
    private val regCode = d.code(su, "s_region", "AMERICA")
    val dimD = new DimBuild(new HashTable(2, dd.numRows), Morsel.scanDispenser(dd, 2),   // datekey → year
      dd("d_datekey"), Array(dd("d_year")), null, 0, 0)
    val dimP = new DimBuild(new HashTable(2, pt.numRows, pt.numRows / 16), Morsel.scanDispenser(pt, 3),
      pt("p_partkey"), Array(pt("p_brand1")), pt("p_category"), catCode, catCode)   // partkey → brand1
    val dimS = new DimBuild(new HashTable(1, su.numRows, su.numRows / 4), Morsel.scanDispenser(su, 3),
      su("s_suppkey"), Array.empty, su("s_region"), regCode, regCode)
    val dispL = Morsel.scanDispenser(lo, 4)

    protected def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
      L(fin.key(e, 0)), pt("p_brand1").dict(fin.key(e, 1).toInt), L(fin.value(e, 0)))
  }

  /** q3.1: revenue by (customer nation, supplier nation, year) for ASIA on
    * both sides and years 1992–1997.
    */
  final class Q31(d: SsbDataSet, threads: Int) extends GroupByPlan(Vector(
      OutCol("c_nation", isString = true), OutCol("s_nation", isString = true),
      OutCol("d_year"), OutCol("revenue")),
      new SharedAgg(3, 1, Array(AggOp.Sum), threads, 1024)) {
    private val dd = d.date; private val su = d.supplier; private val cu = d.customer
    val lo = d.lineorder
    val loDate = lo("lo_orderdate"); val loSupp = lo("lo_suppkey")
    val loCust = lo("lo_custkey"); val loRev = lo("lo_revenue_c")
    private val sAsia = d.code(su, "s_region", "ASIA")
    private val cAsia = d.code(cu, "c_region", "ASIA")
    val dimD = new DimBuild(new HashTable(2, dd.numRows), Morsel.scanDispenser(dd, 2),   // datekey → year
      dd("d_datekey"), Array(dd("d_year")), dd("d_year"), 1992, 1997)
    val dimS = new DimBuild(new HashTable(2, su.numRows, su.numRows / 4), Morsel.scanDispenser(su, 3),
      su("s_suppkey"), Array(su("s_nation")), su("s_region"), sAsia, sAsia)   // suppkey → nation
    val dimC = new DimBuild(new HashTable(2, cu.numRows, cu.numRows / 4), Morsel.scanDispenser(cu, 3),
      cu("c_custkey"), Array(cu("c_nation")), cu("c_region"), cAsia, cAsia)   // custkey → nation
    val dispL = Morsel.scanDispenser(lo, 4)

    protected def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
      cu("c_nation").dict(fin.key(e, 0).toInt), su("s_nation").dict(fin.key(e, 1).toInt),
      L(fin.key(e, 2)), L(fin.value(e, 0)))
  }

  /** q4.1: profit by (year, customer nation) for AMERICA on both sides and
    * manufacturers MFGR#1/MFGR#2. The part build filters on two values, so
    * each engine writes it out; the plan holds its inputs.
    */
  final class Q41(d: SsbDataSet, threads: Int) extends GroupByPlan(Vector(
      OutCol("d_year"), OutCol("c_nation", isString = true), OutCol("profit")),
      new SharedAgg(2, 1, Array(AggOp.Sum), threads, 1024)) {
    private val dd = d.date; private val su = d.supplier; private val cu = d.customer
    val pt = d.part; val lo = d.lineorder
    val loDate = lo("lo_orderdate"); val loPart = lo("lo_partkey")
    val loSupp = lo("lo_suppkey"); val loCust = lo("lo_custkey")
    val loRev = lo("lo_revenue_c"); val loCost = lo("lo_supplycost_c")
    val pKey = pt("p_partkey"); val pMfgr = pt("p_mfgr")
    val mfgr1 = d.code(pt, "p_mfgr", "MFGR#1"); val mfgr2 = d.code(pt, "p_mfgr", "MFGR#2")
    private val sAm = d.code(su, "s_region", "AMERICA")
    private val cAm = d.code(cu, "c_region", "AMERICA")
    val dimD = new DimBuild(new HashTable(2, dd.numRows), Morsel.scanDispenser(dd, 2),
      dd("d_datekey"), Array(dd("d_year")), null, 0, 0)
    val htP = new HashTable(1, pt.numRows, pt.numRows / 2)
    val dispP = Morsel.scanDispenser(pt, 3)
    val dimS = new DimBuild(new HashTable(1, su.numRows, su.numRows / 4), Morsel.scanDispenser(su, 3),
      su("s_suppkey"), Array.empty, su("s_region"), sAm, sAm)
    val dimC = new DimBuild(new HashTable(2, cu.numRows, cu.numRows / 4), Morsel.scanDispenser(cu, 3),
      cu("c_custkey"), Array(cu("c_nation")), cu("c_region"), cAm, cAm)
    val dispL = Morsel.scanDispenser(lo, 4)

    protected def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
      L(fin.key(e, 0)), cu("c_nation").dict(fin.key(e, 1).toInt), L(fin.value(e, 0)))
  }
}
