package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Address placement in the cache simulator's synthetic address space, as
  * done by an [[Arena]] (column layouts and per-run structures alike).
  */
class AddrSpec extends AnyFunSuite {
  test("allocations are 64-byte aligned and non-overlapping") {
    val arena = new Arena(Arena.ColumnBase)
    val a = arena.take(100)
    val b = arena.take(1)
    val c = arena.take(64)
    assert(a % 64 == 0 && b % 64 == 0 && c % 64 == 0)
    assert(a == Arena.ColumnBase)
    assert(b >= a + 100)
    assert(c >= b + 1)
  }

  test("zero/one byte requests still reserve a line") {
    val arena = new Arena(Arena.RunBase)
    val a = arena.take(1)
    val b = arena.take(0)
    val c = arena.take(1)
    assert(b - a == 64 && c - b == 64)
  }
}
