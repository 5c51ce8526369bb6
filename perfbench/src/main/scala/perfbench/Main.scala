package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{Row, SparkSession}
import repro.Oracle
import repro.core.{HwProfile, Prof}
import repro.queries.{Engines, OutCol, QueryOut, TpchData, TpchSchema, TpchSql}
import repro.ssb.{SsbDataSet, SsbSchema, SsbSql, SsbTw, SsbTyper}
import scala.collection.mutable
import scala.util.Random

/** One benchmark workload: which data sets it loads, at which scale, and
  * how many `Prof` passes it makes. Every workload runs the same phases, so
  * that every end-to-end metric exists on every workload; the data and the
  * passes decide which layer does most of the work.
  *
  * @param tpchSf      TPC-H-lite scale factor
  * @param ssbSf       SSB-lite scale factor, 0 = no SSB data
  * @param oracleSf    scale factor of the DuckDB oracle check made in traced
  *                    runs, 0 = no oracle check
  * @param profPasses  `Prof` passes over every cell, at least 2
  */
final case class Workload(name: String, tpchSf: Double, ssbSf: Double, oracleSf: Double,
                          profPasses: Int)

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("tpch-exec", tpchSf = 0.1, ssbSf = 0, oracleSf = 0, profPasses = 2),
    Workload("counters", tpchSf = 0.1, ssbSf = 0.1, oracleSf = 0.001, profPasses = 3))

  /** The smoke variant: every data set at a tiny scale. */
  def tiny(w: Workload): Workload =
    w.copy(tpchSf = 0.001, ssbSf = if (w.ssbSf > 0) 0.001 else 0,
           oracleSf = if (w.oracleSf > 0) 0.001 else 0, profPasses = 2)
}

/** One query of one engine bound to its data set. */
final case class Cell(suite: String, query: String, engine: String, tuples: Long,
                      run: (Int, Prof) => QueryOut) {
  /** Metric prefix: `typer.q1`, `ssb.tw.q2_1`. */
  def key: String = if (suite == "tpch") s"$engine.$query" else s"ssb.$engine.${query.replace('.', '_')}"
  def ref: String = s"$suite.$query"
  /** The failure counter this cell feeds. */
  def failLayer: String = if (suite == "ssb") "ssb" else engine
}

object Main {
  val VecSize = 1024
  val EngineNames = Seq("typer", "tw")
  val SsbQueries = Seq("q1.1", "q2.1", "q3.1", "q4.1")
  /** Span layers whose self time the traced run reports. */
  val TracedLayers = Seq("spark", "data", "sparksql", "oracle", "check", "round", "typer", "tw", "sim", "core", "twprim")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val base = Workload.all.find(_.name == opt("workload"))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${opt("workload")}"))
    val tiny = opts.get("tiny").contains("1")
    val run = new Run(if (tiny) Workload.tiny(base) else base, opt("seed").toLong,
      opt("seconds").toDouble, opt("trace") == "1", opts.getOrElse("commit", "unknown"))
    val code =
      try run.execute(new File(opt("out")), new File(opt("spans")))
      catch { case t: Throwable => t.printStackTrace(); 2 }
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    sys.exit(code)
  }
}

/** One run of one workload. Phases, in order: set-up (Spark session, data
  * generation, `ColTable` extraction), verification (Spark SQL reference
  * answers; when traced, the DuckDB oracle check), JIT warm-up, timed
  * rounds, `Prof` passes, and, when traced, the direct layer probes.
  */
final class Run(w: Workload, seed: Long, seconds: Double, traced: Boolean, commit: String) {
  private val nproc = Runtime.getRuntime.availableProcessors
  private val rnd = new Random(seed)
  private val tr = new Tracer(traced)
  private val m = new Metrics
  private val series = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private var attempted = 0L
  private val failures = mutable.ArrayBuffer.empty[String]
  private val failedBy = mutable.Map.empty[String, Long].withDefaultValue(0L)

  private def sample(name: String, v: Double): Unit =
    series.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  private def log(msg: String): Unit = Console.err.println(s"[perfbench ${w.name}] $msg")

  /** Count one check; an exception or `false` is a failure of `layer`. */
  private def check(layer: String, label: String)(ok: => Boolean): Unit = {
    attempted += 1
    val passed = try ok catch { case t: Throwable => log(s"$label threw: $t"); false }
    if (!passed) { failures += label; failedBy(layer) += 1 }
  }

  private def hwFor(sf: Double): HwProfile =
    HwProfile.skylake.withLlcBytes(math.max(64L * 16 * 64, ((14L << 20) * sf).toLong))

  // ---- reference answers ------------------------------------------------

  private val refRows = mutable.Map.empty[String, (Array[String], Array[Row])]
  private val refCanon = mutable.Map.empty[String, Vector[String]]

  /** Spark SQL rows in the engine's column order and canonical form
    * (the form of `QueryOut.canon`).
    */
  private def canon(cols: Array[String], rows: Array[Row], schema: Vector[OutCol]): Vector[String] = {
    val idx = schema.map { c =>
      val i = cols.indexWhere(_.equalsIgnoreCase(c.name))
      require(i >= 0, s"Spark SQL has no column ${c.name}")
      i
    }
    rows.toVector.map(r => idx.map(i => if (r.isNullAt(i)) "∅" else r.get(i).toString).mkString("|")).sorted
  }

  private def matches(c: Cell, out: QueryOut): Boolean =
    out.canon == refCanon.getOrElseUpdate(c.ref, {
      val (cols, rows) = refRows(c.ref)
      canon(cols, rows, out.schema)
    })

  // ---- run ----------------------------------------------------------------

  def execute(out: File, spansFile: File): Int = {
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = tr.span("spark:session") {
      val s = SparkSession.builder()
        .master(s"local[$nproc]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", 2 * nproc)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        // Adaptive re-planning only adds planning time at these sizes.
        .config("spark.sql.adaptive.enabled", false)
        .config("spark.ui.enabled", false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .getOrCreate()
      s.sparkContext.setLogLevel("ERROR")
      s
    }
    val t0 = System.nanoTime()
    val tpch = tr.span("data:tpch_load")(TpchSchema.load(spark, w.tpchSf))
    val t1 = System.nanoTime()
    val ssb = if (w.ssbSf > 0) Some(tr.span("data:ssb_load")(SsbSchema.load(spark, w.ssbSf))) else None
    val t2 = System.nanoTime()
    val setupS = (System.currentTimeMillis() - jvmStart) / 1e3
    m("setup_s", "s", setupS)
    m("data.tpch_load_s", "s", (t1 - t0) / 1e9)
    m("data.ssb_load_s", "s", (t2 - t1) / 1e9)
    val tables = Seq(tpch.lineitem, tpch.orders, tpch.customer, tpch.supplier, tpch.nation,
      tpch.partsupp, tpch.part) ++ ssb.toSeq.flatMap(s => Seq(s.lineorder, s.date, s.part, s.supplier, s.customer))
    m("data.colbytes_mb", "MB", tables.map(t => 8.0 * t.numRows * t.cols.size).sum / (1 << 20))
    System.gc(); System.gc()
    m("heap_mb", "MB", ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0)
    log(f"set-up $setupS%.2f s")

    val tw = Engines.tw(Main.VecSize)
    val ssbTw = SsbTw.all(Main.VecSize)
    val tpchCells = for (e <- Main.EngineNames; q <- Engines.queryNames) yield
      Cell("tpch", q, e, tpch.tuplesScanned(q), if (e == "typer") Engines.typer(q)(tpch, _, _) else tw(q)(tpch, _, _))
    val ssbCells = ssb.toSeq.flatMap { d =>
      for (e <- Main.EngineNames; q <- Main.SsbQueries) yield
        Cell("ssb", q, e, d.tuplesScanned(q), if (e == "typer") SsbTyper.all(q)(d, _, _) else ssbTw(q)(d, _, _))
    }

    verify(spark, tpch, ssb)
    if (traced && w.oracleSf > 0) oracleCheck(spark)
    else for (q <- Engines.queryNames) m(s"oracle.${q}_s", "s", 0)
    spark.stop()
    System.gc()
    rounds(tpchCells)
    System.gc()
    profPasses(tpchCells ++ ssbCells)
    if (traced) {
      System.gc()
      new LayerProbes(tpch.lineitem, tpch.orders, hwFor(w.tpchSf), nproc, seed, tr, m).runAll()
      tr.on = false
      tr.write(spansFile)
      val self = tr.selfSeconds
      for (layer <- Main.TracedLayers)
        m(s"selftime.${layer}_s", "s", self.getOrElse(layer, 0.0))
      m("trace.spans", "count", tr.spans.size.toDouble)
    }
    for (layer <- Seq("typer", "tw", "ssb", "oracle")) m(s"$layer.failed", "count", failedBy(layer).toDouble)
    m("failed_frac", "frac", failures.size.toDouble / math.max(1L, attempted))

    writeResult(out, spansFile)
    log(s"attempted $attempted checks, ${failures.size} failed")
    if (failures.nonEmpty) 1 else 0
  }

  /** Reference answers from Spark SQL for every query of the workload. */
  private def verify(spark: SparkSession, tpch: TpchData, ssb: Option[SsbDataSet]): Unit = {
    // Whole-stage code generation costs more than it saves on one cold
    // execution of each query at these sizes.
    spark.conf.set("spark.sql.codegen.wholeStage", false)
    val t0 = System.nanoTime()
    def reference(suite: String, q: String, sql: String, metric: String): Unit = {
      val ts = System.nanoTime()
      check("sparksql", s"sparksql.$suite.$q") {
        tr.span(s"sparksql:$suite.$q") {
          val df = spark.sql(sql)
          refRows(s"$suite.$q") = (df.columns, df.collect())
        }
        true
      }
      m(metric, "ms", (System.nanoTime() - ts) / 1e6)
    }
    // TPC-H and SSB share view names; register each set before its queries.
    tpch.dfs.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    for (q <- Engines.queryNames) reference("tpch", q, TpchSql.all(q), s"sparksql.${q}_ms")
    ssb.foreach { d =>
      d.dfs.foreach { case (n, df) => df.createOrReplaceTempView(n) }
      for (q <- Main.SsbQueries) reference("ssb", q, SsbSql.all(q), s"sparksql.ssb_${q.replace('.', '_')}_ms")
    }
    if (ssb.isEmpty) for (q <- Main.SsbQueries) m(s"sparksql.ssb_${q.replace('.', '_')}_ms", "ms", 0)
    m("verify_s", "s", (System.nanoTime() - t0) / 1e9)
  }

  /** The cold differential check of the tier-1 suite, on its own small
    * data set: Typer's result against DuckDB, and Spark SQL and TW equal to
    * Typer bit-exactly.
    */
  private def oracleCheck(spark: SparkSession): Unit = {
    val d = tr.span("data:oracle_load")(TpchSchema.load(spark, w.oracleSf))
    d.dfs.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val tw = Engines.tw(Main.VecSize)
    for (q <- Engines.queryNames) {
      val typerOut = Engines.typer(q)(d, 1, null)
      val ts = System.nanoTime()
      check("oracle", s"oracle.$q") {
        tr.span(s"oracle:$q") {
          Oracle.assertEquivalent(typerOut.toDF(spark), TpchSql.all(q), d.tablesFor(TpchSql.tables(q): _*): _*)
        }
        true
      }
      m(s"oracle.${q}_s", "s", (System.nanoTime() - ts) / 1e9)
      check("typer", s"sparksql.$q == typer.$q at oracle SF") {
        val df = tr.span(s"sparksql:oracle.$q")(spark.sql(TpchSql.all(q)))
        canon(df.columns, df.collect(), typerOut.schema) == typerOut.canon
      }
      check("tw", s"tw.$q == typer.$q at oracle SF")(tw(q)(d, 1, null).canon == typerOut.canon)
    }
  }

  /** Closed-loop rounds: each round runs every (engine, workers) pair once,
    * in a seeded order; one sample is one engine running all five TPC-H
    * queries once, in a seeded order.
    */
  private def rounds(cells: Seq[Cell]): Unit = {
    val configs = for (e <- Main.EngineNames; (label, k) <- Seq("1t" -> 1, "mt" -> nproc)) yield (e, label, k)
    def one(e: String, label: String, workers: Int, record: Boolean, roundId: Int): Unit = {
      val cs = rnd.shuffle(cells.filter(_.engine == e))
      val outs = new Array[QueryOut](cs.size)
      tr.round = roundId
      val t0 = System.nanoTime()
      tr.span(s"round:${e}_$label") {
        var i = 0
        while (i < cs.length) {
          val c = cs(i)
          outs(i) = try tr.span(s"$e:${c.query}.$label")(c.run(workers, null))
                    catch { case t: Throwable => log(s"${c.key} threw: $t"); null }
          i += 1
        }
      }
      val ms = (System.nanoTime() - t0) / 1e6
      tr.round = -1
      tr.span(s"check:round") {
        cs.indices.foreach(i => check(cs(i).failLayer, s"${cs(i).key}.$label")(outs(i) != null && matches(cs(i), outs(i))))
      }
      if (record) sample(s"${e}_${label}_round_ms${if (tr.on || !traced) "" else ".untraced"}", ms)
    }
    val wasOn = tr.on
    tr.on = false
    val warmEnd = System.nanoTime() + (0.25 * seconds * 1e9).toLong
    var r = 0
    while (r < 1 || System.nanoTime() < warmEnd) {
      rnd.shuffle(configs).foreach { case (e, l, k) => one(e, l, k, record = false, -1) }
      r += 1
    }
    log(s"$r warm-up rounds")
    System.gc()
    val end = System.nanoTime() + (seconds * 1e9).toLong
    r = 0
    while (r < 3 || System.nanoTime() < end) {
      // Traced runs alternate traced and untraced rounds; the gap between
      // the two is the tracing overhead.
      tr.on = wasOn && r % 2 == 0
      rnd.shuffle(configs).foreach { case (e, l, k) => one(e, l, k, record = true, r) }
      r += 1
    }
    tr.on = wasOn
    log(s"$r timed rounds")
    for ((e, l, _) <- configs) {
      val s = Stats.summary(series(s"${e}_${l}_round_ms"))
      m(s"${e}_${l}_round_ms_p50", "ms", s.p50)
      m(s"${e}_${l}_round_ms_p90", "ms", s.p90)
      m(s"${e}_${l}_rounds", "count", s.n.toDouble)
    }
    for (c <- cells; l <- Seq("1t", "mt")) {
      val d = tr.durationsMs(s"${c.engine}:${c.query}.$l")
      d.foreach(sample(s"${c.key}.${l}_ms", _))
      m(s"${c.key}.${l}_ms", "ms", if (d.isEmpty) 0.0 else Stats.median(d))
    }
    if (traced) {
      val ratios = configs.map { case (e, l, _) =>
        Stats.median(series(s"${e}_${l}_round_ms")) / Stats.median(series(s"${e}_${l}_round_ms.untraced")) - 1
      }
      m("trace.overhead_frac", "frac", Stats.median(ratios))
    }
  }

  /** Every cell at 1 worker under a fresh `Prof`, in passes of seeded
    * order; results must stay correct and counters must repeat exactly
    * between passes. The first pass warms the JIT; a cell's simulation
    * time is its median over the later passes.
    */
  private def profPasses(cells: Seq[Cell]): Unit = {
    val simMs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val counters = mutable.Map.empty[String, mutable.ArrayBuffer[Seq[Double]]]
    for (_ <- 0 until w.profPasses; c <- rnd.shuffle(cells)) {
      val p = new Prof(hwFor(if (c.suite == "ssb") w.ssbSf else w.tpchSf))
      val t0 = System.nanoTime()
      val out = try tr.span(s"sim:${c.key}")(c.run(1, p)) catch { case t: Throwable => log(s"${c.key} threw: $t"); null }
      simMs.getOrElseUpdate(c.key, mutable.ArrayBuffer.empty) += (System.nanoTime() - t0) / 1e6
      check(c.failLayer, s"${c.key}.prof")(out != null && matches(c, out))
      counters.getOrElseUpdate(c.key, mutable.ArrayBuffer.empty) +=
        Seq(p.instr.toDouble, p.l1Misses.toDouble, p.llcMisses.toDouble, p.branchMisses.toDouble, p.cycles)
    }
    simMs.foreach { case (k, xs) => xs.foreach(sample(s"$k.sim_ms", _)) }
    val medianMs = simMs.map { case (k, xs) => k -> Stats.median(xs.drop(1)) }
    m("sim_mtuples_per_s", "Mtuples/s", cells.map(_.tuples).sum / (medianMs.values.sum / 1e3) / 1e6)
    unstableCells = counters.collect { case (k, runs) if runs.distinct.size > 1 => k }.toSeq.sorted
    m("prof.unstable_cells", "count", unstableCells.size.toDouble)
    // Every cell of both suites is reported; a suite the workload does not
    // load reports 0.
    val tupleOf = cells.map(c => c.key -> c.tuples).toMap
    for (suite <- Seq("tpch", "ssb"); e <- Main.EngineNames;
         q <- if (suite == "tpch") Engines.queryNames else Main.SsbQueries) {
      val key = Cell(suite, q, e, 0, null).key
      val first = counters.get(key).map(_.head)
      m(s"$key.sim_ms", "ms", medianMs.getOrElse(key, 0.0))
      m(s"$key.instr_per_tuple", "instr/tuple", first.map(_(0) / tupleOf(key)).getOrElse(0.0))
      if (suite == "tpch")
        m(s"$key.cycles_per_tuple", "cycles/tuple", first.map(_(4) / tupleOf(key)).getOrElse(0.0))
    }
  }

  private var unstableCells: Seq[String] = Nil

  private def writeResult(out: File, spansFile: File): Unit = {
    val rt = ManagementFactory.getRuntimeMXBean
    val conditions = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "commit" -> commit, "tpch_sf" -> w.tpchSf, "ssb_sf" -> w.ssbSf,
      "oracle_sf" -> (if (traced) w.oracleSf else 0.0), "prof_passes" -> w.profPasses,
      "workers" -> Seq(1, nproc), "nproc" -> nproc, "vector_size" -> Main.VecSize,
      "llc_bytes_tpch" -> hwFor(w.tpchSf).llcBytes,
      "llc_bytes_ssb" -> (if (w.ssbSf > 0) hwFor(w.ssbSf).llcBytes else 0L),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576.0,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "jvm_args" -> rt.getInputArguments.toArray.toSeq.map(_.toString).filterNot(_.startsWith("--add-opens")),
      "spark" -> org.apache.spark.SPARK_VERSION)
    val result = mutable.LinkedHashMap[String, Any](
      "conditions" -> conditions,
      "attempted" -> attempted,
      "failed" -> failures.size,
      "failures" -> failures.toSeq,
      "reference_rows" -> refRows.map { case (k, (_, rows)) => k -> rows.length },
      "unstable_cells" -> unstableCells,
      "metrics" -> m.values.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) },
      "series" -> series.map { case (k, xs) =>
        val s = Stats.summary(xs)
        k -> mutable.LinkedHashMap("n" -> s.n, "p10" -> s.p10, "p50" -> s.p50, "p90" -> s.p90, "samples" -> xs.toSeq)
      },
      "spans_file" -> (if (traced) spansFile.getPath else null))
    out.getParentFile.mkdirs()
    val pw = new PrintWriter(out, "UTF-8")
    try pw.println(Json.render(result)) finally pw.close()
  }
}
