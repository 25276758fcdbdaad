package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Blocks until every queued listener event has been delivered, so totals
  * read from a listener after an action include that action's tasks. It
  * sits under `org.apache.spark` only because the listener bus is
  * package-private there.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
