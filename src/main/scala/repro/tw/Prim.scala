package repro.tw

import repro.core.{Hash, LongCol, Prof}

/** Tectorwise primitives (§2.1): type-specialized tight loops that each do
  * one simple operation over a vector and materialize the result.
  *
  * Conventions:
  *  - `base` is the batch's starting row within the scanned column, so a
  *    column access reads `col.data(base + pos)` where `pos` is a position
  *    within the batch (0 ≤ pos < batch size).
  *  - "first" selection primitives scan the whole batch; "`Sel`" variants
  *    take an input selection vector (sparse access — §5.1's "sparse data
  *    loading") and emit a filtered selection vector.
  *  - value vectors produced by `gather`/`map*` are *dense*: element `i`
  *    corresponds to selection-vector entry `i`.
  *
  * Selections are *predicated* ("`*res=i; res+=cond`", §2.1): the candidate
  * position is always stored and the cursor advances conditionally, so
  * selection primitives expose no data-dependent branches to the branch
  * predictor — matching the paper's branch-free vectorized selection and its
  * near-zero TW branch-miss counts.
  *
  * Each primitive accounts its own instructions, loads/stores, and (where
  * they exist) data-dependent branches to the (nullable) [[Prof]]. Every
  * primitive is hand-specialized per comparison operator — a lambda-generic
  * loop would be megamorphic under the JIT and distort real-time runs.
  */
object Prim {

  // ---- selection: full-batch input, predicated --------------------------

  /** sel ← { pos | col[base+pos] ≤ c }; returns count. */
  def selLeC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) {
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = i
        if (col.data(base + i) <= c) k += 1
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(k) = i; if (col.data(base + i) <= c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos | col[base+pos] < c }. */
  def selLtC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) {
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = i
        if (col.data(base + i) < c) k += 1
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(k) = i; if (col.data(base + i) < c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos | col[base+pos] ≥ c }. */
  def selGeC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) {
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = i
        if (col.data(base + i) >= c) k += 1
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(k) = i; if (col.data(base + i) >= c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos | col[base+pos] > c }. */
  def selGtC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) {
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = i
        if (col.data(base + i) > c) k += 1
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(k) = i; if (col.data(base + i) > c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos | col[base+pos] = c } (e.g. dictionary-code equality). */
  def selEqC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) {
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = i
        if (col.data(base + i) == c) k += 1
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(k) = i; if (col.data(base + i) == c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos | col[base+pos] ∈ {c1, c2} } (two-constant IN list). */
  def selEq2C(col: LongCol, base: Int, n: Int, c1: Long, c2: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(5)
      while (i < n) {
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 4L * k); p.ops(3)
        out.a(k) = i
        val v = col.data(base + i)
        if (v == c1 || v == c2) k += 1
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(k) = i; val v = col.data(base + i); if (v == c1 || v == c2) k += 1; i += 1 }
    out.n = k; k
  }

  // ---- selection: selection-vector input (sparse loads, §5.1) -----------

  /** sel ← { pos ∈ in | col[base+pos] ≤ c }. */
  def selLeCSel(col: LongCol, base: Int, in: Sel, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(6)
      while (i < in.n) {
        val pos = in.a(i)
        p.load(in.addr(p) + 4L * i); p.load(col.addr + 8L * (base + pos))
        p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = pos
        if (col.data(base + pos) <= c) k += 1
        i += 1
      }
      p.loop(in.n)
      p.exitLoop()
    } else while (i < in.n) { val pos = in.a(i); out.a(k) = pos; if (col.data(base + pos) <= c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos ∈ in | col[base+pos] < c }. */
  def selLtCSel(col: LongCol, base: Int, in: Sel, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(6)
      while (i < in.n) {
        val pos = in.a(i)
        p.load(in.addr(p) + 4L * i); p.load(col.addr + 8L * (base + pos))
        p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = pos
        if (col.data(base + pos) < c) k += 1
        i += 1
      }
      p.loop(in.n)
      p.exitLoop()
    } else while (i < in.n) { val pos = in.a(i); out.a(k) = pos; if (col.data(base + pos) < c) k += 1; i += 1 }
    out.n = k; k
  }

  /** sel ← { pos ∈ in | col[base+pos] ≥ c }. */
  def selGeCSel(col: LongCol, base: Int, in: Sel, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    if (p ne null) {
      p.enterLoop(6)
      while (i < in.n) {
        val pos = in.a(i)
        p.load(in.addr(p) + 4L * i); p.load(col.addr + 8L * (base + pos))
        p.store(out.addr(p) + 4L * k); p.ops(2)
        out.a(k) = pos
        if (col.data(base + pos) >= c) k += 1
        i += 1
      }
      p.loop(in.n)
      p.exitLoop()
    } else while (i < in.n) { val pos = in.a(i); out.a(k) = pos; if (col.data(base + pos) >= c) k += 1; i += 1 }
    out.n = k; k
  }

  // ---- gather / map ------------------------------------------------------

  /** out[i] ← col[base + sel[i]] — materialize a column through a selection. */
  def gather(col: LongCol, base: Int, sel: Sel, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < sel.n) {
        val pos = sel.a(i); p.load(sel.addr(p) + 4L * i)
        out.a(i) = col.data(base + pos)
        p.load(col.addr + 8L * (base + pos)); p.store(out.addr(p) + 8L * i)
        i += 1
      }
      p.loop(sel.n)
      p.exitLoop()
    } else while (i < sel.n) { out.a(i) = col.data(base + sel.a(i)); i += 1 }
  }

  /** out[i] ← col[base + i] for a dense batch (no selection vector). */
  def gatherDense(col: LongCol, base: Int, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(3)
      while (i < n) {
        out.a(i) = col.data(base + i)
        p.load(col.addr + 8L * (base + i)); p.store(out.addr(p) + 8L * i)
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = col.data(base + i); i += 1 }
  }

  /** out[i] ← c - in[i]. */
  def mapRsubC(in: Vec, c: Long, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) { out.a(i) = c - in.a(i); p.load(in.addr(p) + 8L * i); p.ops(1); p.store(out.addr(p) + 8L * i); i += 1 }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = c - in.a(i); i += 1 }
  }

  /** out[i] ← c + in[i]. */
  def mapAddC(in: Vec, c: Long, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < n) { out.a(i) = c + in.a(i); p.load(in.addr(p) + 8L * i); p.ops(1); p.store(out.addr(p) + 8L * i); i += 1 }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = c + in.a(i); i += 1 }
  }

  /** out[i] ← a[i] * b[i]. */
  def mapMul(va: Vec, vb: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(5)
      while (i < n) {
        out.a(i) = va.a(i) * vb.a(i)
        p.load(va.addr(p) + 8L * i); p.load(vb.addr(p) + 8L * i); p.ops(1); p.store(out.addr(p) + 8L * i)
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = va.a(i) * vb.a(i); i += 1 }
  }

  /** out[i] ← a[i] - b[i]. */
  def mapSub(va: Vec, vb: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(5)
      while (i < n) {
        out.a(i) = va.a(i) - vb.a(i)
        p.load(va.addr(p) + 8L * i); p.load(vb.addr(p) + 8L * i); p.ops(1); p.store(out.addr(p) + 8L * i)
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = va.a(i) - vb.a(i); i += 1 }
  }

  // ---- hashing (Murmur2 — the TW choice, §4.1) --------------------------

  /** out[i] ← murmur(in[i]). */
  def hashMurmur(in: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(3 + Hash.murmurCost)
      while (i < n) {
        out.a(i) = Hash.murmur(in.a(i))
        p.load(in.addr(p) + 8L * i); p.ops(Hash.murmurCost); p.store(out.addr(p) + 8L * i)
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = Hash.murmur(in.a(i)); i += 1 }
  }

  /** hashes[i] ← combine(hashes[i], in[i]) — composite keys, one column. */
  def hashCombine(hashes: Vec, in: Vec, n: Int, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(4 + Hash.combineCost)
      while (i < n) {
        hashes.a(i) = Hash.combine(hashes.a(i), in.a(i))
        p.load(hashes.addr(p) + 8L * i); p.load(in.addr(p) + 8L * i)
        p.ops(Hash.combineCost); p.store(hashes.addr(p) + 8L * i)
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { hashes.a(i) = Hash.combine(hashes.a(i), in.a(i)); i += 1 }
  }

  // ---- selection-vector composition / misc ------------------------------

  /** out[i] ← cur[matches[i]] — map match positions (which index a dense
    * intermediate space) back to original batch positions after a probe.
    */
  def composeSel(cur: Sel, matches: Sel, out: Sel, p: Prof): Int = {
    var i = 0
    if (p ne null) {
      p.enterLoop(4)
      while (i < matches.n) {
        val j = matches.a(i); p.load(matches.addr(p) + 4L * i)
        out.a(i) = cur.a(j)
        p.load(cur.addr(p) + 4L * j); p.store(out.addr(p) + 4L * i)
        i += 1
      }
      p.loop(matches.n)
      p.exitLoop()
    } else while (i < matches.n) { out.a(i) = cur.a(matches.a(i)); i += 1 }
    out.n = matches.n; out.n
  }

  /** out[i] ← year(in[i]) for epoch-day vectors. */
  def mapYear(in: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    if (p ne null) {
      p.enterLoop(8)
      while (i < n) {
        out.a(i) = repro.core.DateUtil.yearOf(in.a(i)).toLong
        p.load(in.addr(p) + 8L * i); p.ops(5); p.store(out.addr(p) + 8L * i)
        i += 1
      }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { out.a(i) = repro.core.DateUtil.yearOf(in.a(i)).toLong; i += 1 }
  }

  // ---- reductions --------------------------------------------------------

  /** Σ in[i] for i < n (ungrouped aggregation, e.g. Q6's revenue). */
  def sum(in: Vec, n: Int, p: Prof): Long = {
    var s = 0L; var i = 0
    if (p ne null) {
      p.enterLoop(3)
      while (i < n) { s += in.a(i); p.load(in.addr(p) + 8L * i); p.ops(1); i += 1 }
      p.loop(n)
      p.exitLoop()
    } else while (i < n) { s += in.a(i); i += 1 }
    s
  }
}
