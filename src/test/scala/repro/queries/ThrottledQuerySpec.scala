package repro.queries

import repro.SparkSpec
import repro.core.Throttle

/** The Table 5 mechanism: queries remain correct under the scan-I/O throttle
  * and scan-bound queries actually pay for their bytes.
  */
class ThrottledQuerySpec extends SparkSpec {
  private lazy val d = TpchSchema.load(spark, 0.005)

  test("all queries return identical results with the SSD throttle active") {
    val refs = Engines.queryNames.map(q => q -> Engines.typer(q)(d, 1, null).canon).toMap
    val ssd = d.throttled(new Throttle(1e9))
    for (q <- Engines.queryNames) {
      assert(Engines.typer(q)(ssd, 4, null).canon == refs(q), s"$q under throttle")
      assert(Engines.tw()(q)(ssd, 4, null).canon == refs(q), s"$q TW under throttle")
    }
  }

  test("a tight throttle slows a scan query by roughly bytes/bandwidth") {
    // q6 scans 4 lineitem columns: 30000 rows × 32 B = 0.96 MB
    Engines.typer("q6")(d, 2, null) // warm
    val ssd = d.throttled(new Throttle(4e6)) // → ≥ ~0.24 s expected
    val t0 = System.nanoTime()
    Engines.typer("q6")(ssd, 2, null)
    val secs = (System.nanoTime() - t0) / 1e9
    assert(secs >= 0.15, f"throttled q6 finished in $secs%.3f s; throttle ineffective")
  }
}
