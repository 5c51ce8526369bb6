package repro

import repro.core.Prof
import scala.io.Source

/** Golden counters of every (query, engine) cell at SF 0.005, one worker
  * and the Skylake profile: instructions, loads, stores, data-dependent
  * branches, L1 and LLC misses, branch mispredicts and modeled cycles.
  *
  * All eight are a function of query, data, engine and hardware profile
  * only: columns have fixed addresses, per-run structures are placed in the
  * `Prof`'s own arena, and branch sites are fixed ids. So a cell's counters
  * do not depend on what ran earlier in the JVM, and the file catches any
  * drift of the modeled work or the model. The file is
  * `src/test/resources/golden/counters.tsv`; a mismatch prints the actual
  * rows so a deliberate change can be reviewed and copied in.
  */
object GoldenCounters {
  /** The committed rows, header excluded. */
  lazy val golden: Set[String] = {
    val src = Source.fromInputStream(getClass.getResourceAsStream("/golden/counters.tsv"), "UTF-8")
    try src.getLines().drop(1).toSet finally src.close()
  }

  /** The TSV row of `p`'s counters for `query` run by `engine`. */
  def row(query: String, engine: String, p: Prof): String =
    Seq(query, engine, p.instr, p.loads, p.stores, p.bp.branches,
        p.l1Misses, p.llcMisses, p.branchMisses, p.cycles).mkString("\t")
}
