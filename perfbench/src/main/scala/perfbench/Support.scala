package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Sample summaries: every timed series keeps all its samples. */
object Stats {
  final case class Summary(n: Int, p10: Double, p50: Double, p90: Double)

  /** Quantile by linear interpolation between closest ranks. */
  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    val s = xs.sorted.toArray
    require(s.nonEmpty, "quantile of an empty series")
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)

  def summary(xs: collection.Seq[Double]): Summary =
    Summary(xs.size, quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9))
}

/** Named metrics of one run, each with its unit, in insertion order. */
final class Metrics {
  val values: mutable.LinkedHashMap[String, (Double, String)] = mutable.LinkedHashMap.empty
  def apply(name: String, unit: String, v: Double): Unit = {
    require(!v.isNaN && !v.isInfinite, s"metric $name is $v")
    values(name) = (v, unit)
  }
}

/** Spans recorded around calls into each layer, kept in memory and written
  * out when the run ends. A span's layer is the part of its name before the
  * first ':'; a layer's self time is its spans' durations minus the parts
  * covered by their child spans. Spans are opened on the main thread
  * only, so children of one span never overlap.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  /** Whether spans are recorded right now (toggled to measure overhead). */
  var on: Boolean = enabled
  /** Round id stamped on new spans; -1 outside the timed rounds. */
  var round: Int = -1
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = nextId
      nextId += 1
      val parent = if (open.isEmpty) -1 else open.head
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, name, t0, t1, parent, round)
      }
    }

  /** Self time in seconds per layer. */
  def selfSeconds: Map[String, Double] = {
    val childNanos = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNanos(s.parent) += s.nanos)
    spans.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => s.nanos - childNanos(s.id)).sum / 1e9
    }
  }

  /** Durations in ms of the spans called `name`. */
  def durationsMs(name: String): Seq[Double] = spans.filter(_.name == name).map(_.nanos / 1e6).toSeq

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.start).foreach { s =>
      w.println(Json.render(Map("id" -> s.id, "name" -> s.name, "start_ns" -> s.start,
        "end_ns" -> s.end, "parent" -> s.parent, "round" -> s.round)))
    } finally w.close()
  }
}

object Tracer {
  final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, round: Int) {
    def layer: String = name.takeWhile(_ != ':')
    def nanos: Long = end - start
  }
}

/** Minimal JSON rendering for the result and span files. */
object Json {
  def render(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => require(!d.isNaN && !d.isInfinite, s"non-finite $d"); d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case x => quote(x.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
