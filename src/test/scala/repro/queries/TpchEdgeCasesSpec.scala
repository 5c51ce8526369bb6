package repro.queries

import java.time.LocalDate
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, min, pmod, when}
import repro.{Oracle, SparkSpec}
import repro.volcano.VolcanoTpch

/** Differential checks on edge-case instances derived from the SF 0.005
  * data set: Typer, Tectorwise and DuckDB (plus Volcano for q1/q6) must
  * agree on every query, at 1 and 4 workers, when lineitem is empty, when
  * the predicate constants of q3 (`BUILDING`) and q9 (`green`) are missing
  * from the dictionaries, so `code()` returns -1, and when every lineitem
  * has the same order key, return flag and line status, so q1 and q18 each
  * aggregate every row into one group and every q3/q9 probe of the orders
  * hash table walks the same chain, and when half of lineitem (the lines of
  * even orders) has one hot (partkey, suppkey) pair, of a green part, so
  * half of q9's probes hit one part, one partsupp entry and one supplier.
  */
class TpchEdgeCasesSpec extends SparkSpec {
  private lazy val base = TpchSchema.load(spark, 0.005)
  private lazy val tw = Engines.tw()

  private def instance(changed: (String, DataFrame)*): TpchData =
    TpchSchema.columnar(base.sf, base.dfs ++ changed)

  private lazy val emptyLineitem = instance("lineitem" -> base.df("lineitem").limit(0))
  private lazy val dictMisses = instance(
    "customer" -> base.df("customer").filter(col("c_mktsegment") =!= "BUILDING"),
    "part"     -> base.df("part").filter(col("p_color") =!= "green"))
  // The key is an order that passes q3's filters, so q3 has a result too.
  private lazy val allEqualKeys = {
    val q3Order = base.df("orders")
      .join(base.df("customer"), col("o_custkey") === col("c_custkey"))
      .filter(col("c_mktsegment") === TpchConsts.q3Segment &&
              col("o_orderdate") < lit(LocalDate.ofEpochDay(TpchConsts.q3Date)))
      .agg(min("o_orderkey")).head().getLong(0)
    instance("lineitem" -> base.df("lineitem")
      .withColumn("l_orderkey", lit(q3Order))
      .withColumn("l_returnflag", lit("N"))
      .withColumn("l_linestatus", lit("O")))
  }

  private lazy val hotJoinKey = {
    val hot = base.df("partsupp").join(base.df("part"), col("ps_partkey") === col("p_partkey"))
      .filter(col("p_color") === "green").agg(min("ps_partkey")).head().getLong(0)
    val hotSupp = base.df("partsupp").filter(col("ps_partkey") === hot).agg(min("ps_suppkey")).head().getLong(0)
    val even = pmod(col("l_orderkey"), lit(2)) === 0
    instance("lineitem" -> base.df("lineitem")
      .withColumn("l_partkey", when(even, lit(hot)).otherwise(col("l_partkey")))
      .withColumn("l_suppkey", when(even, lit(hotSupp)).otherwise(col("l_suppkey"))))
  }

  test("the instances are what their names say") {
    assert(emptyLineitem.lineitem.numRows == 0)
    assert(emptyLineitem.orders.numRows == base.orders.numRows)
    assert(dictMisses.code(dictMisses.customer, "c_mktsegment", "BUILDING") == -1)
    assert(dictMisses.code(dictMisses.part, "p_color", "green") == -1)
    assert(dictMisses.customer.numRows > 0 && dictMisses.part.numRows > 0)
    val li = allEqualKeys.lineitem
    assert(li.numRows == base.lineitem.numRows)
    assert(li("l_orderkey").data.distinct.length == 1)
    assert(li("l_returnflag").dict.length == 1 && li("l_linestatus").dict.length == 1)
    for (q <- Seq("q1", "q3", "q18")) assert(Engines.typer(q)(allEqualKeys, 1, null).numRows == 1, q)
    val hot = hotJoinKey.lineitem
    val pairs = hot("l_partkey").data.zip(hot("l_suppkey").data)
    val hotShare = pairs.groupBy(identity).values.map(_.length).max.toDouble / pairs.length
    assert(hot.numRows == base.lineitem.numRows && hotShare > 0.4 && hotShare < 0.6, hotShare)
  }

  for ((label, data) <- Seq[(String, () => TpchData)](
         "empty lineitem" -> (() => emptyLineitem),
         "dictionary misses" -> (() => dictMisses),
         "all-equal keys" -> (() => allEqualKeys),
         "hot join key" -> (() => hotJoinKey));
       q <- Engines.queryNames) {
    test(s"$label: $q agrees across Typer, Tectorwise and DuckDB") {
      val d = data()
      val typerOut = Engines.typer(q)(d, 1, null)
      val twOut = tw(q)(d, 1, null)
      assert(twOut.canon == typerOut.canon)
      assert(Engines.typer(q)(d, 4, null).canon == typerOut.canon)
      assert(tw(q)(d, 4, null).canon == typerOut.canon)
      val tables = d.tablesFor(TpchSql.tables(q): _*)
      Oracle.assertEquivalent(typerOut.toDF(spark), TpchSql.all(q), tables: _*)
      Oracle.assertEquivalent(twOut.toDF(spark), TpchSql.all(q), tables: _*)
      q match {
        case "q1" => assert(VolcanoTpch.q1(d, null).canon == typerOut.canon)
        case "q6" => assert(VolcanoTpch.q6(d, null).canon == typerOut.canon)
        case _    =>
      }
    }
  }
}
