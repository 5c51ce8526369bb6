package repro

import org.apache.spark.sql.{DataFrame, Row}
import scala.collection.mutable

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (in-process) over ``tables`` and asserts the sorted rows match
  * ``sparkDf``. This catches wrong results from a rewritten plan or a
  * custom operator — "it ran" is not "it is correct".
  *
  * One DuckDB database serves the whole JVM. Each input DataFrame is loaded
  * once through the typed [[DuckDb]] loader, keyed by object identity, never
  * by name; each call binds the query's table names to those tables with
  * views. DuckDB's answer is computed once per (SQL text, input DataFrames),
  * so a DataFrame must give the same rows each time it is evaluated.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private[repro] def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  private lazy val conn = { val c = DuckDb.connect(); DuckDb.exec(c, "CREATE SCHEMA df"); c }
  private val loaded  = new java.util.IdentityHashMap[DataFrame, String]
  private val answers = mutable.HashMap.empty[(String, Seq[(String, String)]), (Seq[String], Seq[Seq[String]])]

  /** DuckDB's output columns and canonical rows for `sql` over `tables`. */
  private def answer(sql: String, tables: Seq[(String, DataFrame)]) = synchronized {
    val bound = tables.map { case (name, df) =>
      name -> loaded.computeIfAbsent(df, _ => { val t = s"t${loaded.size}"; DuckDb.load(conn, "df", t, df); t })
    }
    answers.getOrElseUpdate((sql, bound), {
      bound.foreach { case (name, t) => DuckDb.exec(conn, s"CREATE OR REPLACE VIEW $name AS SELECT * FROM df.$t") }
      try {
        val (cols, rows) = DuckDb.query(conn, sql)
        (cols, canon(rows, cols))
      } finally bound.foreach { case (name, _) => DuckDb.exec(conn, s"DROP VIEW IF EXISTS $name") }
    })
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val (dCols, exp) = answer(sql, tables)
    val sCols = sparkDf.columns.toSeq
    require(
      dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
    )
    val got = canon(sparkDf.collect().toSeq, sCols)
    require(got == exp,
      s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
      s"  first spark-only: ${got.diff(exp).take(3)}\n" +
      s"  first duck-only:  ${exp.diff(got).take(3)}"
    )
  }
}
