package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{HwProfile, Prof}
import repro.queries.{Engines, QueryOut, TpchSchema}
import repro.ssb.{SsbSchema, SsbTw, SsbTyper}

/** The counter tables (Table 1, §4.4): every (query, engine) cell runs once,
  * single-threaded, under a fresh micro-architecture model, and reports
  * cycles, IPC, instructions, L1/LLC misses, branch misses and memory-stall
  * cycles per tuple scanned. The simulated LLC is scaled with the scale
  * factor (14 MB × sf, since the paper ran SF=1 on a 14 MB LLC) so working
  * set : cache ratios match the paper's — see DESIGN.md.
  */
object CounterTable {
  /** (query, engine, per-tuple counters). */
  type Row = (String, String, Prof.Counters)

  def measure[D](d: D, sf: Double, queries: Seq[String],
                 engines: Seq[(String, Map[String, (D, Int, Prof) => QueryOut])],
                 tuplesScanned: String => Long): Seq[Row] = {
    val hw = HwProfile.skylake.withLlcBytes(math.max(64L * 16 * 64, (14L << 20) * sf).toLong)
    for { q <- queries; (engine, fns) <- engines } yield {
      val p = new Prof(hw)
      fns(q)(d, 1, p)
      (q, engine, p.perTuple(tuplesScanned(q)))
    }
  }

  def format(title: String, rows: Seq[Row]): String = {
    import AsciiTable._
    AsciiTable.format(title,
      Seq("query", "cycles", "IPC", "instr", "L1miss", "LLCmiss", "brMiss", "memStall"),
      rows.map { case (q, e, c) =>
        Seq(s"$q $e", f0(c.cycles), f1(c.ipc), f0(c.instr), f1(c.l1Miss),
            f2(c.llcMiss), f2(c.branchMiss), f1(c.memStall))
      })
  }
}

/** Table 1 — "CPU Counters, TPC-H SF=1, 1 thread, normalized by tuples". */
object Table1Exp {

  def counters(spark: SparkSession, sf: Double = 0.1): Seq[CounterTable.Row] = {
    val d = TpchSchema.load(spark, sf)
    CounterTable.measure(d, sf, Engines.queryNames,
      Seq("Typer" -> Engines.typer, "TW" -> Engines.tw()), d.tuplesScanned)
  }

  def run(spark: SparkSession, sf: Double = 0.1): String = CounterTable.format(
    s"Table 1: CPU counters (modeled), TPC-H-lite SF=$sf, 1 thread, per tuple", counters(spark, sf))
}

/** §4.4's (unnumbered) counter table — SSB Q1.1/Q2.1/Q3.1/Q4.1. The paper
  * ran SF=30 on a 14 MB LLC; 14 MB × sf/30 would underflow at our lite SF,
  * so the same data:cache rule as Table 1 is applied: LLC = 14 MB × sf.
  */
object SsbCountersExp {
  val queries = Seq("q1.1", "q2.1", "q3.1", "q4.1")

  def counters(spark: SparkSession, sf: Double = 0.1): Seq[CounterTable.Row] = {
    val d = SsbSchema.load(spark, sf)
    CounterTable.measure(d, sf, queries, Seq("Typer" -> SsbTyper.all, "TW" -> SsbTw.all()), d.tuplesScanned)
  }

  def run(spark: SparkSession, sf: Double = 0.1): String = CounterTable.format(
    s"SSB counters (modeled, paper 4.4), SSB-lite SF=$sf, 1 thread, per tuple", counters(spark, sf))
}
