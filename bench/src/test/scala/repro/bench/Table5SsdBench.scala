package repro.bench

import repro.SparkSpec
import repro.harness.Table5Exp

/** Reproduces paper Table 5 (out-of-memory / SSD execution). */
class Table5SsdBench extends SparkSpec {
  test("print Table 5") {
    val out = Table5Exp.run(spark, sf = 0.2, threads = 16)
    println(out)
    assert(out.linesIterator.size >= 7)
  }
}
