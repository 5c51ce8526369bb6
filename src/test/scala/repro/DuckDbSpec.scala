package repro

import java.sql.Date
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** The shared DuckDB loader keeps every value and every column type: what
  * `SELECT *` returns equals `df.collect()` in the oracle's canonical form.
  */
class DuckDbSpec extends SparkSpec {
  private val schema = StructType(Seq(
    StructField("b", LongType), StructField("i", IntegerType), StructField("d", DoubleType),
    StructField("dt", DateType), StructField("s", StringType)))

  private lazy val typed = spark.createDataFrame(Seq(
    Row(1L, 2, 1.5, Date.valueOf("1995-03-15"), "BUILDING"),
    Row(null, null, null, null, null),
    Row(Long.MaxValue, Int.MinValue, -0.25, Date.valueOf("1970-01-01"), ""),
    Row(-7L, null, 1e-3, null, "Zürich"),
    Row(null, 0, null, Date.valueOf("2038-01-19"), null)).asJava, schema)

  /** Loads `df` into a fresh database; returns `SELECT *` and the column types. */
  private def roundTrip(df: DataFrame): (Seq[String], Seq[Row], Seq[String]) = {
    val conn = DuckDb.connect()
    try {
      DuckDb.load(conn, "main", "t", df)
      val (cols, rows) = DuckDb.query(conn, "SELECT * FROM t")
      val types = DuckDb.query(conn,
        "SELECT data_type FROM information_schema.columns WHERE table_name = 't' ORDER BY ordinal_position")
        ._2.map(_.getString(0))
      (cols, rows, types)
    } finally conn.close()
  }

  test("BIGINT, INTEGER, DOUBLE, DATE and VARCHAR columns with NULLs round-trip") {
    val (cols, rows, types) = roundTrip(typed)
    assert(cols == typed.columns.toSeq)
    assert(types == Seq("BIGINT", "INTEGER", "DOUBLE", "DATE", "VARCHAR"))
    assert(Oracle.canon(rows, cols) == Oracle.canon(typed.collect().toSeq, cols))
  }

  test("an empty DataFrame loads as an empty typed table") {
    val (cols, rows, types) = roundTrip(typed.limit(0))
    assert(cols == typed.columns.toSeq)
    assert(types == Seq("BIGINT", "INTEGER", "DOUBLE", "DATE", "VARCHAR"))
    assert(rows.isEmpty)
  }
}
