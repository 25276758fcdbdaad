package repro.perfbench

import org.apache.spark.scheduler._
import org.apache.spark.storage.RDDBlockId
import scala.collection.mutable

/** Spark work done under one job group. */
final case class Counts(jobs: Long, tasks: Long, taskMs: Long, shuffleBytes: Long) {
  def +(o: Counts): Counts =
    Counts(jobs + o.jobs, tasks + o.tasks, taskMs + o.taskMs, shuffleBytes + o.shuffleBytes)
  def -(o: Counts): Counts =
    Counts(jobs - o.jobs, tasks - o.tasks, taskMs - o.taskMs, shuffleBytes - o.shuffleBytes)
}

object Counts {
  val Zero: Counts = Counts(0, 0, 0, 0)
}

/** Passive listener: it only sums what Spark reports and never changes
  * scheduling. Jobs, tasks, executor run time and shuffle bytes
  * (read + written) are summed per job group; a job with no group counts
  * under [[Meter.NoGroup]]. Bytes of cached RDD blocks are tracked with
  * their peak.
  */
final class Meter extends SparkListener {
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val groups = mutable.HashMap.empty[String, Counts]
  private val blocks = mutable.HashMap.empty[RDDBlockId, Long]
  private var cached = 0L
  private var peak = 0L

  private def add(group: String, c: Counts): Unit =
    groups(group) = groups.getOrElse(group, Counts.Zero) + c

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties)
      .flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(Meter.NoGroup)
    e.stageIds.foreach(s => stageGroup.getOrElseUpdate(s, group))
    add(group, Counts(1, 0, 0, 0))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      add(stageGroup.getOrElse(e.stageId, Meter.NoGroup), Counts(0, 1, m.executorRunTime,
        m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten))
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    info.blockId match {
      case id: RDDBlockId =>
        val bytes = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
        cached += bytes - blocks.getOrElse(id, 0L)
        if (bytes == 0) blocks -= id else blocks(id) = bytes
        peak = math.max(peak, cached)
      case _ =>
    }
  }

  // Unpersisting drops blocks without a block update, so forget them here.
  override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = synchronized {
    blocks.keys.filter(_.rddId == e.rddId).toList.foreach(id => cached -= blocks.remove(id).get)
  }

  def byGroup: Map[String, Counts] = synchronized(groups.toMap)

  /** Restart peak tracking from the current cached bytes. */
  def resetPeak(): Unit = synchronized { peak = cached }

  def peakBytes: Long = synchronized(peak)
}

object Meter {
  val NoGroup = ""
}
