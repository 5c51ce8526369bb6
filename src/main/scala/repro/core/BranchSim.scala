package repro.core

/** gshare-style branch predictor: per-site PC hashed with an 8-bit global
  * history into a table of 2-bit saturating counters.
  *
  * Engines report only *data-dependent* branches (predicate outcomes, hash
  * chain traversal, key equality); loop back-edges and other statically
  * predictable branches are counted as instructions but never mispredict,
  * matching how a real front end behaves on hot loops.
  */
final class BranchSim(tableBits: Int = 12) {
  private val table = new Array[Byte](1 << tableBits) // 2-bit counters, init weakly-not-taken
  private val mask  = (1 << tableBits) - 1
  private var history = 0

  var branches: Long = 0
  var mispredicts: Long = 0

  /** Record a dynamic branch at static `site`; returns true on mispredict. */
  def branch(site: Int, taken: Boolean): Boolean = {
    branches += 1
    val idx = ((site * 0x9E3779B1) ^ history) & mask
    val c = table(idx)
    val predictTaken = c >= 2
    val miss = predictTaken != taken
    if (miss) mispredicts += 1
    table(idx) = (if (taken) math.min(3, c + 1) else math.max(0, c - 1)).toByte
    history = ((history << 1) | (if (taken) 1 else 0)) & 0xFF
    miss
  }
}

object BranchSim {
  /** The fixed id of the source-level branch `name` (its PC, in effect): a
    * hash of the name, so it never depends on what ran earlier, and a site
    * declared in a class is one site for every instance. Callers that give
    * no name share one site.
    */
  def site(name: String = "anonymous"): Int = scala.util.hashing.MurmurHash3.stringHash(name)
}
