package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.DataFrame
import scala.collection.mutable.ArrayBuffer

/** One traced call into a layer. Times are nanoseconds since the tracer
  * was made; `parent` is the enclosing span's id, or -1. Spans of one
  * pass share `pass`.
  */
final case class Span(id: Int, name: String, parent: Int, pass: Int, start: Long, end: Long) {
  def seconds: Double = (end - start) / 1e9
}

/** Spans around calls into the pipeline's layers, recorded from outside.
  *
  * While `on`, `apply(name)` labels the Spark jobs of its body with the
  * job group `name` and records a span, and `force` materialises a lazy
  * result so its cost lands in the enclosing span. While off, both do
  * nothing beyond running the body. Spans stay in memory until read.
  */
final class Tracer(sc: SparkContext) {
  private val origin = System.nanoTime()
  private val done = ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0
  var on = false
  var pass = 0

  private def now: Long = System.nanoTime() - origin

  def apply[T](name: String)(body: => T): T =
    if (!on) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.fold(-1)(_._1)
      open = (id, name, now) :: open
      sc.setJobGroup(name, name)
      try body
      finally {
        val start = open.head._3
        open = open.tail
        open.headOption match {
          case Some((_, outer, _)) => sc.setJobGroup(outer, outer)
          case None                => sc.clearJobGroup()
        }
        done += Span(id, name, parent, pass, start, now)
      }
    }

  def force(df: DataFrame): Unit = if (on) df.count()

  /** `df` itself when off; when on, `df` cached and materialised, so that
    * a later consumer does not recompute it outside this span.
    */
  def cached(df: DataFrame): DataFrame =
    if (!on) df else { val c = df.cache(); c.count(); c }

  def spans: Seq[Span] = done.toSeq
}
