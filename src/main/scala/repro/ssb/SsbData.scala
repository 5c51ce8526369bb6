package repro.ssb

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SynthData

/** SSB-lite synthetic generator (paper §4.4 runs SSB Q1.1/Q2.1/Q3.1/Q4.1).
  *
  * Shapes follow the Star Schema Benchmark: one fact table (`lineorder`,
  * 6 M rows/SF) and four dimensions — date (2556 days), part (200 K/SF,
  * mfgr → category → brand1 hierarchy), supplier and customer (10 K and
  * 150 K/SF, region → nation → city hierarchy). Monetary columns are
  * integer cents (`*_c`) end-to-end; `lo_orderdate` joins `d_datekey`
  * (epoch days). Deterministic in (sf, seed).
  */
object SsbData {
  private val NLineorderPerSf = 6_000_000L
  private val NPartPerSf      =   200_000L
  private val NSupplierPerSf  =    10_000L
  private val NCustomerPerSf  =   150_000L
  val NumDates = 2556
  val DateBase: Long = java.time.LocalDate.parse("1992-01-01").toEpochDay

  private def n(base: Long, sf: Double): Long = math.max(16L, (base * sf).toLong)

  val regions = Array("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

  private def geo(key: org.apache.spark.sql.Column, seed: Long) = {
    val nat = pmod(key * 17 + seed, lit(25))
    (nat, nat % 5, nat * 10 + pmod(key * 31, lit(10)))
  }

  private def geoCols(prefix: String, key: org.apache.spark.sql.Column, seed: Long) = {
    val (nat, reg, city) = geo(key, seed)
    Seq(
      concat(lit("NATION_"), lpad(nat.cast(StringType), 2, "0"))   as s"${prefix}_nation",
      element_at(array(regions.map(lit).toIndexedSeq: _*), (reg + 1).cast("int")) as s"${prefix}_region",
      concat(lit("CITY_"), lpad(city.cast(StringType), 3, "0"))    as s"${prefix}_city",
    )
  }

  /** Date dimension: one row per day of 1992-01-01 … +2556 days. */
  def date(spark: SparkSession): DataFrame = {
    import spark.implicits._
    SynthData.range(spark, 0, NumDates).select(
      ($"id" + DateBase)                                          as "d_datekey",
      year(date_add(lit("1992-01-01").cast(DateType), $"id".cast("int"))) as "d_year",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01): DataFrame = {
    import spark.implicits._
    // Independent hierarchy digits (mfgr ← p mod 5, category ← ⌊p/5⌋ mod 5,
    // brand ← ⌊p/25⌋ mod 40) so every mfgr/category/brand1 combination exists.
    val mfgr = pmod($"p_partkey", lit(5)) + 1
    val cat  = pmod(($"p_partkey" / 5).cast(LongType), lit(5)) + 1
    val brand = pmod(($"p_partkey" / 25).cast(LongType), lit(40)) + 1
    SynthData.range(spark, 1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      $"p_partkey",
      concat(lit("MFGR#"), mfgr.cast(StringType))                         as "p_mfgr",
      concat(lit("MFGR#"), mfgr.cast(StringType), cat.cast(StringType))   as "p_category",
      concat(lit("MFGR#"), mfgr.cast(StringType), cat.cast(StringType),
             lit("#"), lpad(brand.cast(StringType), 2, "0"))              as "p_brand1",
    )
  }

  def supplier(spark: SparkSession, sf: Double = 0.01): DataFrame = {
    import spark.implicits._
    SynthData.range(spark, 1, n(NSupplierPerSf, sf) + 1).toDF("s_suppkey")
      .select(($"s_suppkey" +: geoCols("s", $"s_suppkey", 3)): _*)
  }

  def customer(spark: SparkSession, sf: Double = 0.01): DataFrame = {
    import spark.implicits._
    SynthData.range(spark, 1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey")
      .select(($"c_custkey" +: geoCols("c", $"c_custkey", 5)): _*)
  }

  def lineorder(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    import spark.implicits._
    val nPart = n(NPartPerSf, sf); val nSupp = n(NSupplierPerSf, sf)
    val nCust = n(NCustomerPerSf, sf)
    SynthData.range(spark, 0, n(NLineorderPerSf, sf)).select(
      ($"id" + 1)                                         as "lo_orderkey",
      (rand(seed) * NumDates).cast(LongType) + DateBase   as "lo_orderdate",
      (rand(seed + 1) * nPart + 1).cast(LongType)         as "lo_partkey",
      (rand(seed + 2) * nSupp + 1).cast(LongType)         as "lo_suppkey",
      (rand(seed + 3) * nCust + 1).cast(LongType)         as "lo_custkey",
      (rand(seed + 4) * 50 + 1).cast(LongType)            as "lo_quantity",
      (rand(seed + 5) * 9000000 + 90000).cast(LongType)   as "lo_extendedprice_c",
      (rand(seed + 6) * 11).cast(LongType)                as "lo_discount",
      (rand(seed + 7) * 9000000 + 90000).cast(LongType)   as "lo_revenue_c",
      (rand(seed + 8) * 6000000 + 60000).cast(LongType)   as "lo_supplycost_c",
    )
  }
}
