package repro.harness

import org.apache.spark.sql.DataFrame
import repro.DuckDb

/** DuckDB as the production *vectorized* engine for Table 2 (VectorWise
  * stand-in), single-threaded like the other Table 2 columns. Tables are
  * loaded through the same typed [[DuckDb]] loader as the correctness
  * oracle; load time is excluded from measurements, matching the paper's
  * methodology.
  */
final class DuckBench(tables: Seq[(String, DataFrame)]) {
  private val conn = DuckDb.connect()
  DuckDb.exec(conn, "PRAGMA threads=1")
  for ((name, df) <- tables) DuckDb.load(conn, "main", name, df)

  /** Median query wall time (ms); results drained, not inspected. */
  def timeQuery(sql: String, warmup: Int = 1, iters: Int = 3): Double =
    Bench.timeMs(warmup, iters) {
      val rs = conn.createStatement.executeQuery(sql)
      while (rs.next()) ()
      rs.close()
    }

  def close(): Unit = conn.close()
}
