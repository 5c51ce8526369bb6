package repro.core

import java.time.LocalDate
import org.apache.spark.sql.DataFrame

/** How a DataFrame column is encoded into a 64-bit engine column.
  *
  * Both engines (Typer and Tectorwise) operate on `Long` columns, mirroring
  * the paper's fixed-point arithmetic ("Q1: fixed-point arithmetic") and
  * dictionary-encoded strings. Encodings are reversible so engine output can
  * be compared exactly against SQL engines.
  */
sealed trait Enc
object Enc {
  /** Integral value taken as-is (keys, counts, priorities). */
  case object Id extends Enc
  /** Monetary / quantity value scaled by 100 to integer cents. */
  case object Cents extends Enc
  /** Date stored as days since 1970-01-01. */
  case object Days extends Enc
  /** String dictionary-encoded to a dense code; dictionary kept for decode. */
  case object Dict extends Enc
}

/** A single engine column: 64-bit values plus an optional string dictionary.
  *
  * `addr` is the column's fixed base address in the simulated address space
  * (the cache simulator sees `addr + 8*i` for element `i`), laid out when its
  * data set is extracted ([[Arena.ColumnBase]] for a column built alone).
  */
final class LongCol(val data: Array[Long], val dict: Array[String], val enc: Enc, val addr: Long) {
  def size: Int = data.length

  /** Decode element `i` back to the external value used in SQL results. */
  def decode(i: Int): Any = decodeValue(data(i))

  def decodeValue(v: Long): Any = enc match {
    case Enc.Id    => v
    case Enc.Cents => v // *_c columns are compared as integer cents everywhere
    case Enc.Days  => LocalDate.ofEpochDay(v).toString
    case Enc.Dict  => dict(v.toInt)
  }
}

object LongCol {
  def apply(data: Array[Long], enc: Enc = Enc.Id, dict: Array[String] = null,
            addr: Long = Arena.ColumnBase): LongCol =
    new LongCol(data, dict, enc, addr)
}

/** An in-memory columnar table shared by all engines; with a `throttle`, it
  * is streamed from that shared-bandwidth device (Table 5), else memory-resident.
  */
final class ColTable(val name: String, val numRows: Int, val cols: Map[String, LongCol],
                     val throttle: Throttle = null) {
  def apply(col: String): LongCol =
    cols.getOrElse(col, throw new NoSuchElementException(s"$name has no column '$col'; has ${cols.keys.mkString(",")}"))
  def columnNames: Seq[String] = cols.keys.toSeq.sorted
  /** The same table, streamed from `t`. */
  def throttled(t: Throttle): ColTable = new ColTable(name, numRows, cols, t)
}

/** Extraction of Spark DataFrames into [[ColTable]]s.
  *
  * Collects to the driver (local mode, lite scale factors) and encodes each
  * requested column per its [[Enc]]. Collection order is preserved so the
  * engines, Spark SQL, and the DuckDB oracle all see the same multiset.
  * Columns take the next ranges of the data set's `layout`, in `spec` order.
  */
object Columnar {

  def fromDF(df: DataFrame, name: String, layout: Arena, spec: (String, Enc)*): ColTable = {
    val rows  = df.select(spec.map(_._1).map(org.apache.spark.sql.functions.col): _*).collect()
    val n     = rows.length
    val built = spec.zipWithIndex.map { case ((colName, enc), ci) =>
      enc match {
        case Enc.Dict =>
          val codes = new Array[Long](n)
          val dict  = scala.collection.mutable.LinkedHashMap.empty[String, Int]
          var i = 0
          while (i < n) {
            val s = rows(i).get(ci) match { case null => "∅"; case x => x.toString }
            codes(i) = dict.getOrElseUpdate(s, dict.size).toLong
            i += 1
          }
          colName -> LongCol(codes, Enc.Dict, dict.keys.toArray, layout.take(8L * n))
        case e =>
          val vals = new Array[Long](n)
          var i = 0
          while (i < n) {
            vals(i) = encodeRaw(rows(i).get(ci), e)
            i += 1
          }
          colName -> LongCol(vals, e, addr = layout.take(8L * n))
      }
    }
    new ColTable(name, n, built.toMap)
  }

  private def encodeRaw(v: Any, enc: Enc): Long = (v, enc) match {
    case (null, _)                    => Long.MinValue
    case (x: java.lang.Long, Enc.Id)    => x.longValue
    case (x: java.lang.Integer, Enc.Id) => x.longValue
    case (x: java.lang.Long, Enc.Cents)    => x.longValue * 100L
    case (x: java.lang.Integer, Enc.Cents) => x.longValue * 100L
    case (x: java.lang.Double, Enc.Cents)  => math.round(x * 100.0)
    case (x: java.math.BigDecimal, Enc.Cents) => x.movePointRight(2).setScale(0, java.math.RoundingMode.HALF_UP).longValueExact()
    case (d: java.sql.Date, Enc.Days)   => d.toLocalDate.toEpochDay
    case (d: LocalDate, Enc.Days)       => d.toEpochDay
    case (x, e) => throw new IllegalArgumentException(s"cannot encode $x (${x.getClass}) as $e")
  }

  /** Epoch-day of a date literal, for predicate constants. */
  def day(iso: String): Long = LocalDate.parse(iso).toEpochDay
}
