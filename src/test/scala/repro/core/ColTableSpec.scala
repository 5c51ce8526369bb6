package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

class ColTableSpec extends SparkSpec {
  import org.apache.spark.sql.functions._
  import org.apache.spark.sql.types._

  private lazy val df = {
    import spark.implicits._
    spark.range(1, 101).select(
      $"id" as "k",
      round(($"id" % 50) * 1.01, 2) as "price",
      date_add(lit("2000-01-01").cast(DateType), $"id".cast("int")) as "d",
      element_at(array(lit("x"), lit("y"), lit("z")), ($"id" % 3 + 1).cast("int")) as "s")
  }

  private lazy val t = Columnar.fromDF(df, "t", new Arena(Arena.ColumnBase),
    "k" -> Enc.Id, "price" -> Enc.Cents, "d" -> Enc.Days, "s" -> Enc.Dict)

  test("row count and column registry") {
    assert(t.numRows == 100)
    assert(t.columnNames == Seq("d", "k", "price", "s"))
    intercept[NoSuchElementException] { t("nope") }
  }

  test("Id encoding preserves longs") {
    assert(t("k").data.toSeq == (1L to 100L))
  }

  test("Cents encoding scales doubles exactly (half-up at the cent)") {
    // price of id=1 is round(1*1.01, 2) = 1.01 → 101 cents
    assert(t("price").data(0) == 101L)
    // id=50 → (50%50)*1.01 = 0.0 → 0 cents
    assert(t("price").data(49) == 0L)
  }

  test("Days encoding round-trips ISO dates through decode") {
    assert(t("d").decode(0) == "2000-01-02")
    assert(t("d").decode(99) == "2000-04-10")
  }

  test("Dict encoding is dense and decodable") {
    val col = t("s")
    assert(col.dict.toSet == Set("x", "y", "z"))
    for (i <- 0 until 100) {
      val expect = Seq("x", "y", "z")((i + 1) % 3) // id = i+1; element_at is 1-based
      assert(col.decode(i) == expect, s"row $i")
    }
  }

  test("columns register distinct simulated addresses") {
    val addrs = t.columnNames.map(c => t(c).addr)
    assert(addrs.distinct.size == addrs.size)
    assert(addrs.forall(_ % 64 == 0))
    // packed from the layout's base in spec order, 100 × 8 B rounded to lines
    assert(Seq("k", "price", "d", "s").map(t(_).addr) == (0 until 4).map(Arena.ColumnBase + 832L * _))
  }

  test("day() parses ISO dates to epoch days") {
    assert(Columnar.day("1970-01-01") == 0)
    assert(Columnar.day("1970-01-02") == 1)
    assert(Columnar.day("1992-01-01") == 8035)
  }

  test("decodeValue on Cents/Id returns the raw long (fixed-point semantics)") {
    assert(t("price").decodeValue(101) == 101L)
    assert(t("k").decodeValue(7) == 7L)
  }
}
