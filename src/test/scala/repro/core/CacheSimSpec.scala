package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CacheSimSpec extends AnyFunSuite {

  private def l1(next: CacheSim = null) = new CacheSim(32 << 10, 8, next)

  test("first access to a line misses, second hits") {
    val c = l1()
    assert(c.access(0x10000) > 0)
    assert(c.access(0x10000) == 0)
    assert(c.misses == 1 && c.hits == 1)
  }

  test("accesses within one 64-byte line share the line") {
    val c = l1()
    c.access(0x20000)
    assert(c.access(0x20000 + 63) == 0)
    assert(c.access(0x20000 + 64) > 0)
  }

  test("sequential 8-byte scan misses once per 8 accesses") {
    val c = l1()
    var i = 0
    while (i < 8192) { c.access(0x40000L + 8L * i); i += 1 }
    assert(c.misses == 1024)
    assert(c.hits == 8192 - 1024)
  }

  test("working set within capacity stays resident") {
    val c = l1()
    // 16 KB working set in a 32 KB cache: second pass must be all hits
    for (_ <- 0 until 2; i <- 0 until 256) c.access(0x80000L + 64L * i)
    assert(c.misses == 256)
    assert(c.hits == 256)
  }

  test("LRU evicts within a set beyond associativity") {
    val c = l1()
    val sets = c.numSets
    // 9 lines mapping to the same set of an 8-way cache, round-robin twice:
    // with true LRU every access misses on the second pass too.
    val addrs = (0 until 9).map(k => 0x100000L + 64L * sets * k)
    addrs.foreach(c.access)
    val missesBefore = c.misses
    addrs.foreach(c.access)
    assert(c.misses == missesBefore + 9)
  }

  test("two-level hierarchy: L1 miss can hit in LLC") {
    val llc = new CacheSim(4 << 20, 16, null)
    val c = new CacheSim(32 << 10, 8, llc)
    // Touch 64 KB (evicts from 32 KB L1 but fits 4 MB LLC), then re-touch.
    for (i <- 0 until 1024) c.access(0x200000L + 64L * i)
    for (i <- 0 until 1024) assert(c.access(0x200000L + 64L * i) == 1) // L1 miss, LLC hit
    assert(llc.misses == 1024 && llc.hits == 1024)
  }

  test("depth 2 reported when both levels miss") {
    val llc = new CacheSim(1 << 20, 16, null)
    val c = new CacheSim(32 << 10, 8, llc)
    assert(c.access(0x300000) == 2)
  }

  test("non-power-of-two set counts (14 MB LLC) are accepted and exercised") {
    val c = new CacheSim(14L << 20, 16, null)
    assert(c.numSets == 14336)
    for (i <- 0 until 100000) c.access(64L * i * 31)
    assert(c.misses + c.hits == 100000)
  }

  test("hierarchy() builds the profile's L1 and LLC sizes") {
    val h = CacheSim.hierarchy(HwProfile.skylake)
    assert(h.sizeBytes == (32 << 10))
    assert(h.next.sizeBytes == (14L << 20))
    assert(h.next.next == null)
  }
}
