package perfbench

import java.util.concurrent.atomic.AtomicLong
import repro.core.{AggHashTable, AggOp, BranchSim, ColTable, Hash, HashTable, HwProfile, Morsel, Prof, SharedAgg}
import repro.tw.{Prim, Sel, Vec}
import scala.util.Random

/** Direct calls into the shared `core` layer and the Tectorwise primitives,
  * fed with keys sampled from the workload's own tables. Each probe repeats
  * its call a fixed number of times and reports the median.
  */
final class LayerProbes(lineitem: ColTable, orders: ColTable, hw: HwProfile, nproc: Int,
                        seed: Long, tr: Tracer, m: Metrics) {
  private val rnd = new Random(seed)
  private val VecSize = 1024

  private def medianNs(reps: Int)(body: => Unit): Double =
    Stats.median((0 until reps).map { _ =>
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0).toDouble
    })

  /** `n` values of `col` drawn at seeded random rows. */
  private def sample(t: ColTable, col: String, n: Int): Array[Long] = {
    val data = t(col).data
    Array.fill(n)(data(rnd.nextInt(data.length)))
  }

  def runAll(): Unit = {
    morsel(); hashTable(); agg(); prof(); prim()
  }

  private def morsel(): Unit = {
    val empty = tr.span("core:morsel.run_empty") {
      medianNs(200)(Morsel.run(nproc)(_ => ()))
    }
    m("core.morsel.run_empty_us", "us", empty / 1e3)
    val barriers = 1000
    val withBarriers = tr.span("core:morsel.barrier") {
      medianNs(5)(Morsel.run(nproc) { ctx => var i = 0; while (i < barriers) { ctx.barrier(); i += 1 } })
    }
    m("core.morsel.barrier_us", "us", math.max(0.0, withBarriers - empty) / barriers / 1e3)
    val n = 1 << 20
    val dispense = tr.span("core:morsel.dispense") {
      medianNs(3) {
        val d = new Morsel.Dispenser(n, 1)
        Morsel.run(nproc)(_ => while (d.next() != null) {})
      }
    }
    m("core.morsel.dispense_ns", "ns", dispense / n)
  }

  private def hashTable(): Unit = {
    val all = orders("o_orderkey").data
    // A selective build, like Q3's filtered orders: half the keys, so that
    // probes with lineitem keys also miss.
    val build = all.filter(_ => rnd.nextBoolean())
    val probe = sample(lineitem, "l_orderkey", 1 << 20)
    def buildWith(workers: Int): HashTable = {
      val ht = new HashTable(1, build.length)
      val d = new Morsel.Dispenser(build.length)
      Morsel.run(workers) { _ =>
        var r = d.next()
        while (r != null) {
          var i = r.startI
          while (i < r.endI) {
            val k = build(i)
            val e = ht.reserve(null)
            ht.setSlot(e, 0, k, null)
            ht.publish(e, Hash.crc(k), null)
            i += 1
          }
          r = d.next()
        }
      }
      ht
    }
    for ((label, w) <- Seq("1t" -> 1, "mt" -> nproc)) {
      val ns = tr.span(s"core:hashtable.build_$label")(medianNs(5)(buildWith(w)))
      m(s"core.hashtable.build_${label}_ns_per_key", "ns/key", ns / build.length)
    }
    val ht = buildWith(1)
    var misses = 0L
    var tagRejects = 0L
    val probeNs = tr.span("core:hashtable.probe") {
      medianNs(5) {
        misses = 0; tagRejects = 0
        var i = 0
        while (i < probe.length) {
          val k = probe(i)
          var e = ht.first(Hash.crc(k), null)
          if (e < 0) tagRejects += 1
          while (e >= 0 && ht.getSlot(e, 0, null) != k) e = ht.next(e, null)
          if (e < 0) misses += 1
          i += 1
        }
      }
    }
    m("core.hashtable.probe_ns_per_key", "ns/key", probeNs / probe.length)
    m("core.hashtable.tag_reject_frac", "frac", if (misses == 0) 0.0 else tagRejects.toDouble / misses)
  }

  private def agg(): Unit = {
    val flag = lineitem("l_returnflag").data
    val status = lineitem("l_linestatus").data
    val qty = lineitem("l_quantity_c").data
    val okey = lineitem("l_orderkey").data
    val n = flag.length
    val lowNs = tr.span("core:agg.low_card") {
      medianNs(5) {
        val t = new AggHashTable(2, 1, 16)
        val key = new Array[Long](2)
        var i = 0
        while (i < n) {
          key(0) = flag(i); key(1) = status(i)
          val e = t.findOrInsert(Hash.crc2(key(0), key(1)), key, 0, null)
          t.addToValue(e, 0, qty(i), null)
          i += 1
        }
      }
    }
    m("core.agg.low_card_ns_per_row", "ns/row", lowNs / n)
    val highNs = tr.span("core:agg.high_card") {
      medianNs(5) {
        val t = new AggHashTable(1, 1, 1024)
        var i = 0
        while (i < n) {
          val e = t.findOrInsert(Hash.crc(okey(i)), okey, i, null)
          t.addToValue(e, 0, qty(i), null)
          i += 1
        }
      }
    }
    m("core.agg.high_card_ns_per_row", "ns/row", highNs / n)
    val mergeNs = tr.span("core:sharedagg.merge") {
      Stats.median((0 until 5).map { _ =>
        val sa = new SharedAgg(1, 1, Array[AggOp](AggOp.Sum), nproc, orders.numRows)
        val d = new Morsel.Dispenser(n)
        val start = new AtomicLong()
        val end = new AtomicLong()
        Morsel.run(nproc) { ctx =>
          val local = sa.local(ctx.workerId)
          var r = d.next()
          while (r != null) {
            var i = r.startI
            while (i < r.endI) {
              val e = local.findOrInsert(Hash.crc(okey(i)), okey, i, null)
              local.addToValue(e, 0, qty(i), null)
              i += 1
            }
            r = d.next()
          }
          ctx.barrier()
          if (ctx.workerId == 0) start.set(System.nanoTime())
          sa.mergePartition(ctx.workerId, null)
          ctx.barrier()
          if (ctx.workerId == 0) end.set(System.nanoTime())
        }
        (end.get - start.get).toDouble
      })
    }
    m("core.sharedagg.merge_ms", "ms", mergeNs / 1e6)
  }

  private def prof(): Unit = {
    val col = lineitem("l_extendedprice_c")
    val n = 1 << 20
    val addrs = Array.fill(n)(col.addr + 8L * rnd.nextInt(col.size))
    val flag = lineitem("l_returnflag").data
    val taken = Array.tabulate(n)(i => flag(i % flag.length) == 0L)
    val loadNs = tr.span("core:prof.load") {
      medianNs(5) { val p = new Prof(hw); var i = 0; while (i < n) { p.load(addrs(i)); i += 1 } }
    }
    m("core.prof.load_ns", "ns", loadNs / n)
    val site = BranchSim.site()
    val branchNs = tr.span("core:prof.branch") {
      medianNs(5) { val p = new Prof(hw); var i = 0; while (i < n) { p.branch(site, taken(i)); i += 1 } }
    }
    m("core.prof.branch_ns", "ns", branchNs / n)
    val accessNs = tr.span("core:prof.cachesim_access") {
      medianNs(5) { val p = new Prof(hw); var i = 0; while (i < n) { p.cache.access(addrs(i)); i += 1 } }
    }
    m("core.prof.cachesim_access_ns", "ns", accessNs / n)
  }

  private def prim(): Unit = {
    val ship = lineitem("l_shipdate")
    val price = lineitem("l_extendedprice_c")
    val rows = ship.size
    val mid = { val s = sample(lineitem, "l_shipdate", 4096).sorted; s(s.length / 2) }
    val batches = (0 until rows by VecSize).map(b => (b, math.min(VecSize, rows - b)))
    val sel = new Sel(VecSize)
    val selNs = tr.span("twprim:sel") {
      medianNs(5)(batches.foreach { case (b, k) => Prim.selLeC(ship, b, k, mid, sel, null) })
    }
    m("tw.prim.sel_ns_per_tuple", "ns/tuple", selNs / rows)
    val sels = batches.map { case (b, k) => val s = new Sel(VecSize); Prim.selLeC(ship, b, k, mid, s, null); s }
    val selected = sels.map(_.n.toLong).sum
    val out = new Vec(VecSize)
    val gatherNs = tr.span("twprim:gather") {
      medianNs(5)(batches.indices.foreach(i => Prim.gather(price, batches(i)._1, sels(i), out, null)))
    }
    m("tw.prim.gather_ns_per_tuple", "ns/tuple", gatherNs / math.max(1L, selected))
    val keys = lineitem("l_orderkey")
    val vecs = batches.map { case (b, k) => val v = new Vec(VecSize); Prim.gatherDense(keys, b, k, v, null); v }
    val hashNs = tr.span("twprim:hash") {
      medianNs(5)(batches.indices.foreach(i => Prim.hashMurmur(vecs(i), batches(i)._2, out, null)))
    }
    m("tw.prim.hash_ns_per_tuple", "ns/tuple", hashNs / rows)
  }
}
