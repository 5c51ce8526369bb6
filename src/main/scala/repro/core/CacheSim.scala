package repro.core

/** Set-associative cache simulator with 64-byte lines and LRU replacement.
  *
  * Levels are chained via `next` (L1 → LLC → memory). `access` returns the
  * level that served the request: 0 = this cache hit, 1 = next level hit,
  * 2 = beyond (for an L1→LLC chain: 2 means DRAM). Miss counters accumulate
  * per level, mirroring the paper's L1miss / LLCmiss columns of Table 1.
  *
  * Only data accesses are modeled; the paper measured instruction-cache
  * misses to be negligible for OLAP (§4.2), so no I-cache is simulated.
  */
final class CacheSim(val sizeBytes: Long, val assoc: Int, val next: CacheSim) {
  require(assoc > 0 && sizeBytes >= 64L * assoc, s"cache too small: $sizeBytes bytes, $assoc-way")

  private val lineBits = 6
  val numSets: Int = (sizeBytes / 64 / assoc).toInt
  // Power-of-two set counts index by mask; odd sizes (e.g. 14 MB LLCs) by
  // modulo — the set-mapping difference is irrelevant at this granularity.
  private val pow2 = (numSets & (numSets - 1)) == 0
  private val setMask = numSets - 1

  // tags(set*assoc + way); 0 = empty. Stamp-based LRU.
  private val tags   = new Array[Long](numSets * assoc)
  private val stamps = new Array[Long](numSets * assoc)
  private var clock  = 0L

  var hits: Long   = 0
  var misses: Long = 0

  /** Access the line containing `addr`; returns depth that served it. */
  def access(addr: Long): Int = {
    val line = addr >>> lineBits
    val set  = if (pow2) (line & setMask).toInt else (line % numSets).toInt
    val base = set * assoc
    clock += 1
    var w = 0
    var lruW = 0
    var lruStamp = Long.MaxValue
    while (w < assoc) {
      val t = tags(base + w)
      if (t == line + 1) { hits += 1; stamps(base + w) = clock; return 0 }
      if (stamps(base + w) < lruStamp) { lruStamp = stamps(base + w); lruW = w }
      w += 1
    }
    misses += 1
    tags(base + lruW) = line + 1
    stamps(base + lruW) = clock
    if (next eq null) 1 else 1 + next.access(addr)
  }
}

object CacheSim {
  /** Standard two-level hierarchy from a hardware profile. */
  def hierarchy(hw: HwProfile): CacheSim = {
    val llc = new CacheSim(hw.llcBytes, 16, null)
    new CacheSim(hw.l1Bytes, 8, llc)
  }
}
