package repro

import repro.core.Prof
import scala.io.Source

/** Golden modeled-work counts of every (query, engine) cell at SF 0.005 and
  * one worker: instructions, loads, stores and data-dependent branches.
  *
  * These four counts are a function of query, data and engine only. Cache
  * misses, branch mispredicts and cycles also depend on the global `Addr`
  * cursor and on `BranchSim.site()` ids, so they are not in the file.
  * The file is `src/test/resources/golden/counters.tsv`; a mismatch prints
  * the actual rows so a deliberate change can be reviewed and copied in.
  */
object GoldenCounters {
  /** The committed rows, header excluded. */
  lazy val golden: Set[String] = {
    val src = Source.fromInputStream(getClass.getResourceAsStream("/golden/counters.tsv"), "UTF-8")
    try src.getLines().drop(1).toSet finally src.close()
  }

  /** The TSV row of `p`'s counts for `query` run by `engine`. */
  def row(query: String, engine: String, p: Prof): String =
    Seq(query, engine, p.instr, p.loads, p.stores, p.bp.branches).mkString("\t")
}
