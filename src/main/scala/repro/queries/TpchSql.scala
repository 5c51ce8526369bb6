package repro.queries

/** The five TPC-H-lite queries as a single SQL text each, run unchanged by
  * Spark SQL (temp views) and DuckDB (the oracle and Table 2), which both
  * see the same typed columns. The only casts set an output column's type
  * (and are mirrored in GROUP BY): dates are returned as strings, and
  * `o_shippriority` (INTEGER) and `year(...)` as BIGINT, like the engines'
  * decoded strings and `Long`s.
  *
  * Monetary arithmetic is integer cents throughout (DESIGN.md §5), so all
  * engines agree bit-exactly. Query structure preserves each paper query's
  * bottleneck: Q1 fixed-point arithmetic + small aggregation, Q6 selective
  * filters, Q3/Q9 hash joins (Q9 with a composite-key join), Q18
  * high-cardinality aggregation.
  */
object TpchSql {

  /** Q18's HAVING threshold in quantity cents (see DESIGN.md: scaled so the
    * subquery stays selective-but-nonempty under SynthData's ~4
    * lineitems/order at lite scale factors).
    */
  val Q18ThresholdCents = 25000L

  val q1: String = """
    SELECT l_returnflag, l_linestatus,
           sum(l_quantity_c)                                             AS sum_qty,
           sum(l_extendedprice_c)                                        AS sum_base,
           sum(l_extendedprice_c * (100 - l_discount_c))                 AS sum_disc_price,
           sum(l_extendedprice_c * (100 - l_discount_c) * (100 + l_tax_c)) AS sum_charge,
           count(*)                                                      AS count_order
    FROM lineitem
    WHERE l_shipdate <= date '1998-09-02'
    GROUP BY l_returnflag, l_linestatus
  """

  val q6: String = """
    SELECT sum(l_extendedprice_c * l_discount_c) AS revenue
    FROM lineitem
    WHERE l_shipdate >= date '1994-01-01'
      AND l_shipdate <  date '1995-01-01'
      AND l_discount_c BETWEEN 5 AND 7
      AND l_quantity_c < 2400
  """

  val q3: String = """
    SELECT l_orderkey,
           cast(o_orderdate as string)     AS o_orderdate,
           cast(o_shippriority as bigint)  AS o_shippriority,
           sum(l_extendedprice_c * (100 - l_discount_c)) AS revenue
    FROM customer, orders, lineitem
    WHERE c_mktsegment = 'BUILDING'
      AND c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND o_orderdate < date '1995-03-15'
      AND l_shipdate > date '1995-03-15'
    GROUP BY l_orderkey, cast(o_orderdate as string), cast(o_shippriority as bigint)
  """

  val q9: String = """
    SELECT n_name                               AS nation,
           cast(year(o_orderdate) as bigint)    AS o_year,
           sum(l_extendedprice_c * (100 - l_discount_c)
               - ps_supplycost_c * l_quantity_c) AS amount
    FROM part, supplier, lineitem, partsupp, orders, nation
    WHERE s_suppkey  = l_suppkey
      AND ps_suppkey = l_suppkey
      AND ps_partkey = l_partkey
      AND p_partkey  = l_partkey
      AND o_orderkey = l_orderkey
      AND s_nationkey = n_nationkey
      AND p_color = 'green'
    GROUP BY n_name, cast(year(o_orderdate) as bigint)
  """

  val q18: String = s"""
    SELECT c_custkey, o_orderkey,
           cast(o_orderdate as string) AS o_orderdate,
           o_totalprice_c,
           sum(l_quantity_c)           AS sum_qty
    FROM customer, orders, lineitem
    WHERE o_orderkey IN (
            SELECT l_orderkey
            FROM lineitem
            GROUP BY l_orderkey
            HAVING sum(l_quantity_c) > $Q18ThresholdCents)
      AND c_custkey = o_custkey
      AND o_orderkey = l_orderkey
    GROUP BY c_custkey, o_orderkey, cast(o_orderdate as string), o_totalprice_c
  """

  val all: Map[String, String] =
    Map("q1" -> q1, "q6" -> q6, "q3" -> q3, "q9" -> q9, "q18" -> q18)

  /** Input tables per query (for oracle registration). */
  val tables: Map[String, Seq[String]] = Map(
    "q1" -> Seq("lineitem"), "q6" -> Seq("lineitem"),
    "q3" -> Seq("customer", "orders", "lineitem"),
    "q9" -> Seq("part", "supplier", "lineitem", "partsupp", "orders", "nation"),
    "q18" -> Seq("customer", "orders", "lineitem"))
}
