package repro.ssb

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Arena, ColTable, Columnar, Enc}
import scala.collection.concurrent.TrieMap

/** SSB-lite dataset in DataFrame and columnar engine form. */
final case class SsbDataSet(
    sf: Double,
    lineorder: ColTable, date: ColTable, part: ColTable,
    supplier: ColTable, customer: ColTable,
    dfs: Map[String, DataFrame]) {

  def tablesFor(names: String*): Seq[(String, DataFrame)] = names.map(n => n -> dfs(n))

  def code(t: ColTable, col: String, v: String): Long = {
    val i = t(col).dict.indexOf(v)
    i.toLong
  }

  def tuplesScanned(query: String): Long = query match {
    case "q1.1" => lineorder.numRows.toLong + date.numRows
    case "q2.1" => lineorder.numRows.toLong + date.numRows + part.numRows + supplier.numRows
    case "q3.1" => lineorder.numRows.toLong + date.numRows + supplier.numRows + customer.numRows
    case "q4.1" => lineorder.numRows.toLong + date.numRows + part.numRows + supplier.numRows + customer.numRows
    case q => throw new IllegalArgumentException(s"unknown ssb query $q")
  }
}

object SsbSchema {
  private val cache = TrieMap.empty[Double, SsbDataSet]

  def load(spark: SparkSession, sf: Double): SsbDataSet =
    cache.getOrElseUpdate(sf, build(spark, sf))

  private def build(spark: SparkSession, sf: Double): SsbDataSet = {
    val lo = SsbData.lineorder(spark, sf).persist()
    val dd = SsbData.date(spark).persist()
    val pt = SsbData.part(spark, sf).persist()
    val su = SsbData.supplier(spark, sf).persist()
    val cu = SsbData.customer(spark, sf).persist()
    val dfs = Map("lineorder" -> lo, "date" -> dd, "part" -> pt,
                  "supplier" -> su, "customer" -> cu)
    dfs.foreach { case (n, d) => d.createOrReplaceTempView(n) }

    val layout = new Arena(Arena.ColumnBase) // column addresses, in the order below
    SsbDataSet(
      sf = sf,
      lineorder = Columnar.fromDF(lo, "lineorder", layout,
        "lo_orderdate" -> Enc.Id, "lo_partkey" -> Enc.Id, "lo_suppkey" -> Enc.Id,
        "lo_custkey" -> Enc.Id, "lo_quantity" -> Enc.Id,
        "lo_extendedprice_c" -> Enc.Id, "lo_discount" -> Enc.Id,
        "lo_revenue_c" -> Enc.Id, "lo_supplycost_c" -> Enc.Id),
      date = Columnar.fromDF(dd, "date", layout, "d_datekey" -> Enc.Id, "d_year" -> Enc.Id),
      part = Columnar.fromDF(pt, "part", layout,
        "p_partkey" -> Enc.Id, "p_mfgr" -> Enc.Dict,
        "p_category" -> Enc.Dict, "p_brand1" -> Enc.Dict),
      supplier = Columnar.fromDF(su, "supplier", layout,
        "s_suppkey" -> Enc.Id, "s_nation" -> Enc.Dict, "s_region" -> Enc.Dict),
      customer = Columnar.fromDF(cu, "customer", layout,
        "c_custkey" -> Enc.Id, "c_nation" -> Enc.Dict, "c_region" -> Enc.Dict),
      dfs = dfs)
  }
}

/** The four SSB-lite query texts (§4.4), run unchanged by Spark SQL and the
  * DuckDB oracle over the same typed columns. The one cast returns `d_year`
  * (INTEGER) as BIGINT like the engines' `Long`s; GROUP BY mirrors it.
  */
object SsbSql {
  val q11: String = """
    SELECT sum(lo_extendedprice_c * lo_discount) AS revenue
    FROM lineorder, date
    WHERE lo_orderdate = d_datekey
      AND d_year = 1993
      AND lo_discount BETWEEN 1 AND 3
      AND lo_quantity < 25
  """

  val q21: String = """
    SELECT cast(d_year as bigint) AS d_year, p_brand1,
           sum(lo_revenue_c) AS revenue
    FROM lineorder, date, part, supplier
    WHERE lo_orderdate = d_datekey
      AND lo_partkey = p_partkey
      AND lo_suppkey = s_suppkey
      AND p_category = 'MFGR#12'
      AND s_region = 'AMERICA'
    GROUP BY cast(d_year as bigint), p_brand1
  """

  val q31: String = """
    SELECT c_nation, s_nation, cast(d_year as bigint) AS d_year,
           sum(lo_revenue_c) AS revenue
    FROM lineorder, date, supplier, customer
    WHERE lo_orderdate = d_datekey
      AND lo_suppkey = s_suppkey
      AND lo_custkey = c_custkey
      AND c_region = 'ASIA' AND s_region = 'ASIA'
      AND d_year BETWEEN 1992 AND 1997
    GROUP BY c_nation, s_nation, cast(d_year as bigint)
  """

  val q41: String = """
    SELECT cast(d_year as bigint) AS d_year, c_nation,
           sum(lo_revenue_c - lo_supplycost_c) AS profit
    FROM lineorder, date, part, supplier, customer
    WHERE lo_orderdate = d_datekey
      AND lo_partkey = p_partkey
      AND lo_suppkey = s_suppkey
      AND lo_custkey = c_custkey
      AND c_region = 'AMERICA' AND s_region = 'AMERICA'
      AND p_mfgr IN ('MFGR#1', 'MFGR#2')
    GROUP BY cast(d_year as bigint), c_nation
  """

  val all: Map[String, String] =
    Map("q1.1" -> q11, "q2.1" -> q21, "q3.1" -> q31, "q4.1" -> q41)

  val tables: Map[String, Seq[String]] = Map(
    "q1.1" -> Seq("lineorder", "date"),
    "q2.1" -> Seq("lineorder", "date", "part", "supplier"),
    "q3.1" -> Seq("lineorder", "date", "supplier", "customer"),
    "q4.1" -> Seq("lineorder", "date", "part", "supplier", "customer"))
}
