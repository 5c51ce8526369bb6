package repro.volcano

import repro.core.{BranchSim, LongCol, Prof}

/** Interpreted expression tree over a tuple (values as longs, bools 0/1).
  * Every node evaluation models the type-dispatch + virtual-call overhead of
  * a classical interpreter (§4.2): this engine is the "System R" cell of the
  * paper's Table 6 taxonomy and the vector-size-1 endpoint of Figure 5.
  */
sealed trait Expr {
  def eval(row: Array[Long], p: Prof): Long
  /** Modeled per-node interpretation overhead (dispatch + box/branch). */
  protected def overhead(p: Prof): Unit = if (p ne null) p.ops(4)
}

final case class ColRef(i: Int) extends Expr {
  def eval(row: Array[Long], p: Prof): Long = { overhead(p); row(i) }
}
final case class Const(v: Long) extends Expr {
  def eval(row: Array[Long], p: Prof): Long = { overhead(p); v }
}
final case class BinOp(op: Char, a: Expr, b: Expr) extends Expr {
  def eval(row: Array[Long], p: Prof): Long = {
    overhead(p)
    if (p ne null) p.ops(1)
    val x = a.eval(row, p); val y = b.eval(row, p)
    op match {
      case '+' => x + y
      case '-' => x - y
      case '*' => x * y
      case '<' => if (x < y) 1 else 0
      case 'L' => if (x <= y) 1 else 0 // ≤
      case 'G' => if (x >= y) 1 else 0 // ≥
      case '=' => if (x == y) 1 else 0
      case '&' => if (x != 0 && y != 0) 1 else 0
      case o   => throw new IllegalArgumentException(s"op $o")
    }
  }
}

/** Volcano-style pull operator: `next()` returns one tuple or null (EOS).
  * Each call models the per-tuple virtual-call overhead that vectorization
  * amortizes and compilation eliminates.
  */
trait VolOp {
  def open(): Unit = ()
  def next(p: Prof): Array[Long]
  /** Per-next() iterator overhead (virtual dispatch, state update). */
  protected def callOverhead(p: Prof): Unit = if (p ne null) p.ops(6)
}

/** Full-table scan over a fixed set of columns; reuses one row buffer. */
final class VolScan(cols: Array[LongCol]) extends VolOp {
  private val row = new Array[Long](cols.length)
  private var i = 0
  private val n = if (cols.isEmpty) 0 else cols(0).size
  override def open(): Unit = i = 0
  def next(p: Prof): Array[Long] = {
    callOverhead(p)
    if (i >= n) return null
    var c = 0
    while (c < cols.length) {
      row(c) = cols(c).data(i)
      if (p ne null) p.load(cols(c).addr + 8L * i)
      c += 1
    }
    i += 1
    row
  }
}

final class VolFilter(child: VolOp, pred: Expr) extends VolOp {
  private val site = BranchSim.site("VolFilter.keep")
  override def open(): Unit = child.open()
  def next(p: Prof): Array[Long] = {
    callOverhead(p)
    var r = child.next(p)
    while (r != null) {
      val keep = pred.eval(r, p) != 0
      if (p ne null) p.branch(site, keep)
      if (keep) return r
      r = child.next(p)
    }
    null
  }
}

final class VolProject(child: VolOp, exprs: Array[Expr]) extends VolOp {
  private val row = new Array[Long](exprs.length)
  override def open(): Unit = child.open()
  def next(p: Prof): Array[Long] = {
    callOverhead(p)
    val r = child.next(p)
    if (r == null) return null
    var i = 0
    while (i < exprs.length) { row(i) = exprs(i).eval(r, p); i += 1 }
    row
  }
}

/** Blocking hash aggregation: group keys are input columns (by index),
  * aggregates are SUM over expressions plus an implicit COUNT.
  */
final class VolHashAgg(child: VolOp, keyIdx: Array[Int], sums: Array[Expr]) extends VolOp {
  private val table = new repro.core.AggHashTable(
    math.max(1, keyIdx.length), sums.length + 1, 64)
  private val keyRow = new Array[Long](math.max(1, keyIdx.length))
  private var emitted = 0
  private var built = false
  private val out = new Array[Long](keyIdx.length + sums.length + 1)

  override def open(): Unit = { child.open(); built = false; emitted = 0 }

  private def build(p: Prof): Unit = {
    var r = child.next(p)
    while (r != null) {
      var i = 0
      while (i < keyIdx.length) { keyRow(i) = r(keyIdx(i)); i += 1 }
      if (keyIdx.isEmpty) keyRow(0) = 0
      val h = repro.core.Hash.murmur(keyRow(0)) ^ (if (keyIdx.length > 1) repro.core.Hash.murmur(keyRow(1)) * 31 else 0)
      if (p ne null) p.ops(repro.core.Hash.murmurCost)
      val e = table.findOrInsert(h, keyRow, 0, p)
      i = 0
      while (i < sums.length) { table.addToValue(e, i, sums(i).eval(r, p), p); i += 1 }
      table.addToValue(e, sums.length, 1L, p)
      r = child.next(p)
    }
    built = true
  }

  /** Emits rows: [keys..., sums..., count]. */
  def next(p: Prof): Array[Long] = {
    callOverhead(p)
    if (!built) build(p)
    if (emitted >= table.size) return null
    var i = 0
    while (i < keyIdx.length) { out(i) = table.key(emitted, i); i += 1 }
    var v = 0
    while (v <= sums.length) { out(keyIdx.length + v) = table.value(emitted, v); v += 1 }
    emitted += 1
    out
  }
}
