package repro.ssb

import repro.{GoldenCounters, Oracle, SparkSpec}
import repro.core.{HwProfile, Prof}

/** End-to-end correctness of the four SSB-lite queries (§4.4) across both
  * engines, the DuckDB oracle, Spark SQL, threads, and the counter model.
  */
class SsbQueriesSpec extends SparkSpec {
  private lazy val d = SsbSchema.load(spark, 0.005)
  private lazy val tw = SsbTw.all()

  for (q <- Seq("q1.1", "q2.1", "q3.1", "q4.1")) {
    def oracleTables = d.tablesFor(SsbSql.tables(q): _*)

    test(s"ssb $q: Spark SQL matches DuckDB oracle") {
      val tables = oracleTables
      Oracle.assertEquivalent(spark.sql(SsbSql.all(q)), SsbSql.all(q), tables: _*)
    }

    test(s"ssb $q: Typer matches DuckDB oracle") {
      Oracle.assertEquivalent(SsbTyper.all(q)(d, 1, null).toDF(spark), SsbSql.all(q), oracleTables: _*)
    }

    test(s"ssb $q: Tectorwise matches DuckDB oracle") {
      Oracle.assertEquivalent(tw(q)(d, 1, null).toDF(spark), SsbSql.all(q), oracleTables: _*)
    }

    test(s"ssb $q: Tectorwise equals Typer bit-exactly") {
      assert(tw(q)(d, 1, null).canon == SsbTyper.all(q)(d, 1, null).canon)
    }

    test(s"ssb $q: 4-thread run equals single-threaded (both engines)") {
      assert(SsbTyper.all(q)(d, 4, null).canon == SsbTyper.all(q)(d, 1, null).canon)
      assert(tw(q)(d, 4, null).canon == tw(q)(d, 1, null).canon)
    }

    test(s"ssb $q: counter-model run leaves results unchanged") {
      val ref = SsbTyper.all(q)(d, 1, null).canon
      val pT = new Prof(HwProfile.skylake)
      assert(SsbTyper.all(q)(d, 1, pT).canon == ref)
      val pV = new Prof(HwProfile.skylake)
      assert(tw(q)(d, 1, pV).canon == ref)
      assert(pT.instr > 0 && pV.instr > 0)
      val rows = Seq("typer" -> pT, "tw" -> pV).map { case (e, p) => GoldenCounters.row(q, e, p) }
      assert(rows.forall(GoldenCounters.golden),
        s"modeled-work counts differ from golden/counters.tsv; actual rows:\n${rows.mkString("\n")}")
    }

    test(s"ssb $q: non-trivial result") {
      assert(SsbTyper.all(q)(d, 1, null).numRows > 0)
    }
  }
}
