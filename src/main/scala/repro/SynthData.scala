package repro

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) so
  * the DuckDB oracle sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** Partitions of every generated range. `rand(seed)` seeds each partition
    * with `seed + partitionIndex`, so a count taken from the session's
    * default parallelism would make the data depend on the core count.
    */
  private val Slices = 4

  /** `spark.range(start, end)` in `Slices` partitions; every generator, here
    * and in [[repro.ssb.SsbData]], draws its rows from it.
    */
  private[repro] def range(spark: SparkSession, start: Long, end: Long): Dataset[java.lang.Long] =
    spark.range(start, end, 1, Slices)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    range(spark, 0, n(NLineitemPerSf, sf)).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    range(spark, 1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed)     * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(seed + 1) * 3 + 1).cast("int"))         as "o_orderstatus",
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 3) * 2406).cast("int"))            as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    import spark.implicits._
    range(spark, 1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      $"c_custkey",
      (rand(seed) * 25).cast(IntegerType)                as "c_nationkey",
      round(rand(seed + 1) * 10000 - 1000, 2)            as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(seed + 2) * 5 + 1).cast("int"))   as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame = {
    import spark.implicits._
    range(spark, 1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      $"p_partkey",
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (rand(seed) * 6 + 1).cast("int"))              as "p_type",
      (rand(seed + 1) * 50 + 1).cast(IntegerType)               as "p_size",
      round(lit(900.0) + ($"p_partkey" % 1000) / 10.0, 2)       as "p_retailprice",
    )
  }

  private val NSupplierPerSf = 10_000L

  /** Suppliers per part in partsupp (TPC-H uses 4). */
  val SuppliersPerPart = 4

  /** Number of suppliers at `sf` (min 16 so the 4-suppliers-per-part spread
    * stays collision-free at tiny test scale factors).
    */
  def numSuppliers(sf: Double): Long = math.max(16L, n(NSupplierPerSf, sf))

  /** The j-th supplier of a part (j in 0..3), TPC-H-style deterministic
    * spread; used identically by [[partsupp]] and the derived `l_suppkey`
    * so every lineitem (partkey, suppkey) pair exists in partsupp.
    */
  def suppOfPart(partkey: org.apache.spark.sql.Column, j: org.apache.spark.sql.Column,
                 nSupp: Long): org.apache.spark.sql.Column =
    pmod(partkey - 1 + j * (nSupp / SuppliersPerPart + 1), lit(nSupp)) + 1

  /** Supplier dimension: s_suppkey, s_nationkey (Q9 substrate). */
  def supplier(spark: SparkSession, sf: Double = 0.01, seed: Long = 6): DataFrame = {
    import spark.implicits._
    range(spark, 1, numSuppliers(sf) + 1).toDF("s_suppkey").select(
      $"s_suppkey",
      pmod($"s_suppkey" * 7 + seed, lit(25)).cast(IntegerType) as "s_nationkey",
    )
  }

  /** Nation dimension: 25 fixed rows (Q9 substrate). */
  def nation(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val names = Array(
      "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
      "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
      "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
      "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES")
    range(spark, 0, 25).toDF("n_nationkey").select(
      $"n_nationkey".cast(IntegerType) as "n_nationkey",
      element_at(array(names.map(lit).toIndexedSeq: _*), ($"n_nationkey" + 1).cast("int")) as "n_name",
    )
  }

  /** Partsupp: 4 suppliers per part with deterministic supply cost. */
  def partsupp(spark: SparkSession, sf: Double = 0.01): DataFrame = {
    import spark.implicits._
    val nSupp = numSuppliers(sf)
    range(spark, 0, n(NPartPerSf, sf) * SuppliersPerPart).select(
      (($"id" / SuppliersPerPart).cast(LongType) + 1)             as "ps_partkey",
      suppOfPart(($"id" / SuppliersPerPart).cast(LongType) + 1,
                 pmod($"id", lit(SuppliersPerPart)), nSupp)       as "ps_suppkey",
      round(pmod($"id" * 97, lit(90000)) / 100.0 + 100.0, 2)      as "ps_supplycost",
    )
  }

  /** Skewed key column — for join-skew / cardinality-estimation papers. */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    import spark.implicits._
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k, alpha)).sum
    range(spark, 0, rows).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      rand(seed + 1) as "v",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame = {
    import spark.implicits._
    range(spark, 0, rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )
  }
}
