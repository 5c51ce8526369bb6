package repro

import org.apache.spark.sql.functions._

/** Self-test of the DuckDB oracle: it must accept equal results and reject
  * wrong ones — a broken oracle would silently bless broken engines.
  */
class OracleSpec extends SparkSpec {
  private lazy val t = {
    import spark.implicits._
    spark.range(1, 101).select($"id" as "k", ($"id" * 2) as "v")
  }

  test("accepts an equivalent aggregate") {
    val got = t.agg(sum(col("v")) as "s")
    Oracle.assertEquivalent(got, "SELECT sum(v) AS s FROM t", "t" -> t)
  }

  test("rejects a wrong value") {
    val wrong = t.agg((sum(col("v")) + 1) as "s")
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT sum(v) AS s FROM t", "t" -> t)
    }
    assert(e.getMessage.contains("result mismatch"))
  }

  test("rejects missing rows") {
    val partial = t.filter(col("k") < 50).select(col("k"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(partial, "SELECT k FROM t", "t" -> t)
    }
    assert(e.getMessage.contains("result mismatch"))
  }

  test("rejects mismatched output columns") {
    val renamed = t.agg(sum(col("v")) as "wrong_name")
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(renamed, "SELECT sum(v) AS s FROM t", "t" -> t)
    }
    assert(e.getMessage.contains("column mismatch"))
  }

  test("group-by results compare order-independently") {
    val got = t.groupBy((col("k") % 3) as "g").agg(count(lit(1)) as "c")
    Oracle.assertEquivalent(got,
      "SELECT k % 3 AS g, count(*) AS c FROM t GROUP BY k % 3",
      "t" -> t)
  }

  test("two DataFrames registered under the same name one after the other are not confused") {
    import spark.implicits._
    val first  = spark.range(1, 11).select($"id" as "k")
    val second = spark.range(101, 111).select($"id" as "k")
    val sql = "SELECT sum(k) AS s FROM t"
    Oracle.assertEquivalent(first.agg(sum(col("k")) as "s"), sql, "t" -> first)
    Oracle.assertEquivalent(second.agg(sum(col("k")) as "s"), sql, "t" -> second)
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(first.agg(sum(col("k")) as "s"), sql, "t" -> second)
    }
    assert(e.getMessage.contains("result mismatch"))
  }
}
