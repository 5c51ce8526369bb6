package repro.queries

import repro.{GoldenCounters, Oracle, SparkSpec}
import repro.core.{HashTable, HwProfile, Prof, Throttle}

/** End-to-end correctness of the five TPC-H-lite queries: every engine is
  * checked against the DuckDB oracle, against Spark SQL, against the other
  * engine (bit-exact), across thread counts, vector sizes, and under the
  * counter-model profiler.
  */
class TpchQueriesSpec extends SparkSpec {
  private lazy val d = TpchSchema.load(spark, 0.005)
  private lazy val tw = Engines.tw()

  for (q <- Engines.queryNames) {
    def oracleTables = d.tablesFor(TpchSql.tables(q): _*)

    test(s"$q: Spark SQL matches DuckDB oracle (validates shared SQL text)") {
      val tables = oracleTables // forces the data load, which registers the temp views
      Oracle.assertEquivalent(spark.sql(TpchSql.all(q)), TpchSql.all(q), tables: _*)
    }

    test(s"$q: Typer matches DuckDB oracle") {
      Oracle.assertEquivalent(Engines.typer(q)(d, 1, null).toDF(spark), TpchSql.all(q), oracleTables: _*)
    }

    test(s"$q: Tectorwise matches DuckDB oracle") {
      Oracle.assertEquivalent(tw(q)(d, 1, null).toDF(spark), TpchSql.all(q), oracleTables: _*)
    }

    test(s"$q: Tectorwise equals Typer bit-exactly") {
      assert(tw(q)(d, 1, null).canon == Engines.typer(q)(d, 1, null).canon)
    }

    test(s"$q: 4-thread morsel-parallel run equals single-threaded (both engines)") {
      assert(Engines.typer(q)(d, 4, null).canon == Engines.typer(q)(d, 1, null).canon)
      assert(tw(q)(d, 4, null).canon == tw(q)(d, 1, null).canon)
    }

    test(s"$q: Tectorwise result is vector-size invariant (64, 4096)") {
      val ref = tw(q)(d, 1, null).canon
      assert(Engines.tw(64)(q)(d, 1, null).canon == ref)
      assert(Engines.tw(4096)(q)(d, 1, null).canon == ref)
    }

    test(s"$q: counter-model (Prof) run leaves results unchanged, counts > 0") {
      val ref = Engines.typer(q)(d, 1, null).canon
      val pT = new Prof(HwProfile.skylake)
      assert(Engines.typer(q)(d, 1, pT).canon == ref)
      val pV = new Prof(HwProfile.skylake)
      assert(tw(q)(d, 1, pV).canon == ref)
      assert(pT.instr > 0 && pV.instr > 0)
      val rows = Seq("typer" -> pT, "tw" -> pV).map { case (e, p) => GoldenCounters.row(q, e, p) }
      assert(rows.forall(GoldenCounters.golden),
        s"modeled-work counts differ from golden/counters.tsv; actual rows:\n${rows.mkString("\n")}")
      assert(pT.cycles > 0 && pV.cycles > 0)
    }

    test(s"$q: result is non-trivial at SF 0.005") {
      val out = Engines.typer(q)(d, 1, null)
      assert(out.numRows > 0)
      if (q == "q6") assert(out.rows.head.head != null, "Q6 revenue should be non-NULL at this SF")
    }
  }

  test("every cell's counters are the same before and after unrelated work in the JVM") {
    def counters(): Seq[String] =
      for (q <- Engines.queryNames; (e, fn) <- Seq("typer" -> Engines.typer(q), "tw" -> tw(q))) yield {
        val p = new Prof(HwProfile.skylake)
        fn(d, 1, p)
        GoldenCounters.row(q, e, p)
      }
    val before = counters()
    val other = new Prof(HwProfile.skylake)
    Engines.typer("q9")(d, 1, other)
    tw("q3")(d.throttled(new Throttle(1e12)), 2, null)
    val stray = new HashTable(2, 100000)
    stray.first(42L, other)
    new repro.tw.Vec(4096).addr(other)
    tw("q18")(d, 1, other)
    val after = counters()
    assert(after == before, before.zip(after).filter(x => x._1 != x._2).mkString("\n"))
  }

  test("volcano q1 equals Typer q1") {
    assert(repro.volcano.VolcanoTpch.q1(d, null).canon == Engines.typer("q1")(d, 1, null).canon)
  }

  test("volcano q6 equals Typer q6") {
    assert(repro.volcano.VolcanoTpch.q6(d, null).canon == Engines.typer("q6")(d, 1, null).canon)
  }

  test("volcano q1 under profiler is unchanged and costs more instructions per tuple than TW") {
    val pVol = new Prof(HwProfile.skylake)
    assert(repro.volcano.VolcanoTpch.q1(d, pVol).canon == Engines.typer("q1")(d, 1, null).canon)
    val pTw = new Prof(HwProfile.skylake)
    tw("q1")(d, 1, pTw)
    assert(pVol.instr > pTw.instr, s"volcano=${pVol.instr} tw=${pTw.instr}")
  }
}
