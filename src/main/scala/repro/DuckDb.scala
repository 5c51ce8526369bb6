package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.duckdb.DuckDBConnection

/** The one DuckDB loader, shared by the correctness [[Oracle]] and Table 2's
  * [[repro.harness.DuckBench]]: each DataFrame becomes a table with typed
  * columns, bulk-loaded through DuckDB's `Appender`.
  */
object DuckDb {
  private val duckType: Map[DataType, String] = Map(LongType -> "BIGINT", IntegerType -> "INTEGER",
    DoubleType -> "DOUBLE", DateType -> "DATE", StringType -> "VARCHAR")

  /** A fresh in-process DuckDB database. */
  def connect(): DuckDBConnection = {
    Class.forName("org.duckdb.DuckDBDriver")
    DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
  }

  def exec(conn: DuckDBConnection, sql: String): Unit = {
    val st = conn.createStatement
    try st.execute(sql) finally st.close()
  }

  /** Create `schema.table` with `df`'s column types and append all its rows. */
  def load(conn: DuckDBConnection, schema: String, table: String, df: DataFrame): Unit = {
    val cols = df.schema.fields.map { f =>
      s"${f.name} ${duckType.getOrElse(f.dataType, throw new IllegalArgumentException(s"unsupported ${f.dataType}"))}"
    }
    exec(conn, s"CREATE TABLE $schema.$table (${cols.mkString(", ")})")
    val ap = conn.createAppender(schema, table)
    try df.toLocalIterator().forEachRemaining { r =>
      ap.beginRow()
      for (i <- 0 until r.length) r.get(i) match {
        case null                 => ap.append(null: String)
        case v: java.lang.Long    => ap.append(v.longValue)
        case v: java.lang.Integer => ap.append(v.intValue)
        case v: java.lang.Double  => ap.append(v.doubleValue)
        case v: java.sql.Date     => ap.appendLocalDateTime(v.toLocalDate.atStartOfDay)
        case v: String            => ap.append(v)
      }
      ap.endRow()
    } finally ap.close()
  }

  /** Run `sql`; returns the output column labels and every row. */
  def query(conn: DuckDBConnection, sql: String): (Seq[String], Seq[Row]) = {
    val st = conn.createStatement
    try {
      val rs   = st.executeQuery(sql)
      val cols = (1 to rs.getMetaData.getColumnCount).map(rs.getMetaData.getColumnLabel)
      val rows = Iterator.continually(rs).takeWhile(_.next())
        .map(r => Row.fromSeq((1 to cols.size).map(r.getObject))).toVector
      (cols, rows)
    } finally st.close()
  }
}
