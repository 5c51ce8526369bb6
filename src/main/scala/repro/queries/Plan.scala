package repro.queries

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicLong, LongAdder}
import repro.core.{AggHashTable, Prof, SharedAgg}
import repro.queries.QueryOut.L
import scala.jdk.CollectionConverters._

/** The engine-independent part of one query run (paper §3: Typer and
  * Tectorwise share everything but their pipeline bodies). A concrete plan
  * ([[TpchPlans]], [[repro.ssb.SsbPlans]]) holds the column handles and
  * dictionary codes, every hash table and [[SharedAgg]] sized once, the
  * morsel dispensers and the output schema; this base holds the result step.
  * A plan serves one run: its dispensers and tables are consumed by it.
  */
abstract class Plan(schema: Vector[OutCol]) {
  /** Result rows, added by the workers. */
  protected val out = new ConcurrentLinkedQueue[Array[Any]]()

  /** The query result; call after `Morsel.run` returned. */
  def result: QueryOut = QueryOut(schema, out.asScala.toVector)
}

/** A plan whose last pipeline feeds the two-phase group-by `shared`. */
abstract class GroupByPlan(schema: Vector[OutCol], val shared: SharedAgg) extends Plan(schema) {
  /** Decode group `e` of a final aggregation table into a result row. */
  protected def row(fin: AggHashTable, e: Int): Array[Any]

  /** Phase 2 for worker `w` (after its last barrier): merge the worker's
    * partition of the groups and add them to the result.
    */
  final def mergeAndEmit(w: Int, p: Prof): Unit = {
    val fin = shared.mergePartition(w, p)
    var e = 0
    while (e < fin.size) { out.add(row(fin, e)); e += 1 }
  }
}

/** A plan whose result is one sum over the qualifying rows (TPC-H Q6, SSB
  * q1.1): SQL's `sum` is NULL when no row qualified.
  */
abstract class SumPlan(column: String) extends Plan(Vector(OutCol(column))) {
  private val total = new LongAdder
  private val matched = new AtomicLong(0)

  /** Add one worker's partial `sum` over `hits` qualifying rows. */
  final def add(sum: Long, hits: Long): Unit = { total.add(sum); matched.addAndGet(hits); () }

  override def result: QueryOut = {
    out.add(Array[Any](if (matched.get == 0) null else L(total.sum)))
    super.result
  }
}
