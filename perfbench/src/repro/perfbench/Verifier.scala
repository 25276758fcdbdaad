package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.RankingMetrics
import repro.kg.EaBenchmark
import scala.collection.mutable

/** A similarity matrix collected into the Spark driver as three parallel
  * arrays.
  */
final class Cells(val src: Array[Long], val dst: Array[Long], val score: Array[Double]) {
  def size: Int = src.length
}

object Cells {
  def of(spark: SparkSession, m: DataFrame): Cells = {
    import spark.implicits._
    val parts = m.select("src", "dst", "score").as[(Long, Long, Double)].rdd
      .mapPartitions { it =>
        val s = Array.newBuilder[Long]; val d = Array.newBuilder[Long]
        val v = Array.newBuilder[Double]
        it.foreach { case (a, b, c) => s += a; d += b; v += c }
        Iterator((s.result(), d.result(), v.result()))
      }.collect()
    new Cells(Array.concat(parts.map(_._1): _*), Array.concat(parts.map(_._2): _*),
      Array.concat(parts.map(_._3): _*))
  }
}

/** Oracle for the pipeline's decisions, run in the Spark driver.
  *
  * Each check recomputes a result from the collected matrix with plain
  * loops and records every disagreement under the op's name. The rules
  * are the pipeline's documented ones: preferences by descending score,
  * ties to the smaller opposite-side id. Under those aligned strict
  * preferences the stable matching is unique, so a one-to-one matching
  * of full size with no blocking pair is the one deferred acceptance must
  * return. When `on` is false every check is skipped.
  */
final class Verifier(spark: SparkSession, b: EaBenchmark, val on: Boolean) {
  private val errors = mutable.LinkedHashMap.empty[String, List[String]]
  private lazy val gold: Map[Long, Long] = {
    import spark.implicits._
    b.test.select("src", "dst").as[(Long, Long)].collect().toMap
  }

  /** Nanoseconds spent checking, so that a timed pass can leave them out. */
  var nanos = 0L

  def failures: Map[String, List[String]] = errors.toMap

  // Checking runs untraced passes only; its Spark jobs go under their own
  // job group so that they are not counted as the pipeline's.
  private def timed(body: => Unit): Unit = if (on) {
    val t0 = System.nanoTime()
    spark.sparkContext.setJobGroup(Verifier.Group, Verifier.Group)
    try body finally spark.sparkContext.clearJobGroup()
    nanos += System.nanoTime() - t0
  }

  private def fail(op: String, msg: String): Unit =
    errors(op) = errors.getOrElse(op, Nil) :+ msg

  private def matchMap(op: String, matches: DataFrame, collective: Boolean): Map[Long, Long] = {
    import spark.implicits._
    val pairs = matches.select("src", "dst").as[(Long, Long)].collect()
    val m = pairs.toMap
    if (m.size != pairs.length) fail(op, "a source is matched twice")
    if (collective && m.values.toSet.size != m.size) fail(op, "a target is matched twice")
    m
  }

  /** Checks a decision on `fused` (DAA if `collective`, else row argmax)
    * and the accuracy reported for it.
    */
  def decision(op: String, fused: DataFrame, matches: DataFrame, collective: Boolean,
               accuracy: Double): Unit = timed {
    val c = Cells.of(spark, fused)
    val m = matchMap(op, matches, collective)
    if (collective) stable(op, c, m) else argmax(op, c, m)
    val correct = gold.count { case (u, v) => m.get(u).contains(v) }
    if (accuracy != correct.toDouble / gold.size)
      fail(op, s"accuracy $accuracy, oracle ${correct.toDouble / gold.size}")
  }

  private def stable(op: String, c: Cells, m: Map[Long, Long]): Unit = {
    val partnerOfDst = m.map(_.swap)
    val srcScore = mutable.HashMap.empty[Long, Double]
    val dstScore = mutable.HashMap.empty[Long, Double]
    for (i <- 0 until c.size if m.get(c.src(i)).contains(c.dst(i))) {
      srcScore(c.src(i)) = c.score(i); dstScore(c.dst(i)) = c.score(i)
    }
    if (srcScore.size != m.size) fail(op, "a matched pair is not a matrix cell")
    val full = math.min(c.src.distinct.length, c.dst.distinct.length)
    if (m.size != full) fail(op, s"${m.size} pairs matched, a complete matching has $full")
    var blocking = 0
    for (i <- 0 until c.size) {
      val (u, v, s) = (c.src(i), c.dst(i), c.score(i))
      val uWants = m.get(u).forall { p =>
        val ps = srcScore.getOrElse(u, Double.NegativeInfinity)
        s > ps || (s == ps && v < p)
      }
      val vWants = partnerOfDst.get(v).forall { q =>
        val qs = dstScore.getOrElse(v, Double.NegativeInfinity)
        s > qs || (s == qs && u < q)
      }
      if (!m.get(u).contains(v) && uWants && vWants) blocking += 1
    }
    if (blocking > 0) fail(op, s"$blocking blocking pairs")
  }

  private def argmax(op: String, c: Cells, m: Map[Long, Long]): Unit = {
    val best = mutable.HashMap.empty[Long, (Long, Double)]
    for (i <- 0 until c.size) {
      val (u, v, s) = (c.src(i), c.dst(i), c.score(i))
      best.get(u) match {
        case Some((bv, bs)) if bs > s || (bs == s && bv < v) =>
        case _ => best(u) = (v, s)
      }
    }
    val expected = best.view.mapValues(_._1).toMap
    if (m != expected)
      fail(op, s"${expected.count { case (u, v) => !m.get(u).contains(v) }} rows not at their argmax")
  }

  /** Checks Hits@1, Hits@10 (exact) and MRR (to 1e-9) of `fused`. */
  def ranking(op: String, fused: DataFrame, r: RankingMetrics): Unit = timed {
    val c = Cells.of(spark, fused)
    val goldScore = mutable.HashMap.empty[Long, Double]
    for (i <- 0 until c.size if gold.get(c.src(i)).contains(c.dst(i))) goldScore(c.src(i)) = c.score(i)
    val ahead = mutable.HashMap.empty[Long, Int].withDefaultValue(0)
    for (i <- 0 until c.size; gs <- goldScore.get(c.src(i))) {
      val s = c.score(i)
      if (s > gs || (s == gs && c.dst(i) < gold(c.src(i)))) ahead(c.src(i)) += 1
    }
    val ranks = gold.keys.toSeq.map(u => goldScore.get(u).map(_ => ahead(u) + 1))
    val n = gold.size.toDouble
    val h1 = ranks.count(_.exists(_ <= 1)) / n
    val h10 = ranks.count(_.exists(_ <= 10)) / n
    val mrr = ranks.flatten.map(1.0 / _).sum / n
    if (r.hitsAt1 != h1) fail(op, s"Hits@1 ${r.hitsAt1}, oracle $h1")
    if (r.hitsAt10 != h10) fail(op, s"Hits@10 ${r.hitsAt10}, oracle $h10")
    if (math.abs(r.mrr - mrr) > 1e-9) fail(op, s"MRR ${r.mrr}, oracle $mrr")
  }
}

object Verifier {
  val Group = "verify"
}
