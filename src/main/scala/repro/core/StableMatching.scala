package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable

/** Collective EA as the Stable Matching Problem (paper §VI).
  *
  * Preference lists on both sides come from the fused similarity matrix:
  * a source entity prefers targets by descending score; a target prefers
  * proposers by descending score of the same cell. Ties are broken by
  * ascending id on both sides, making preferences strict and the
  * (source-optimal) stable matching unique — so the distributed and the
  * reference implementation must agree exactly, which the tests check.
  *
  * [[daa]] computes that matching in rounds on Spark: each round runs
  * one [[SimilarityMatrix.lineBests]] over the cells of still-unmatched
  * entities and matches every pair that is the best of its row and of
  * its column. It stops when a round finds no such pair or matches every
  * remaining row or column, and yields the same source-optimal stable
  * matching as the sequential Gale–Shapley of [[referenceDaa]].
  */
object StableMatching {

  /** Deferred acceptance on a similarity matrix, distributed.
    *
    * In CEAFF both sides rank by the *same* matrix cell values (a source
    * prefers targets by `M(u,v)`, a target prefers sources by the same
    * `M(u,v)`), with ties broken by ascending opposite-side id. Under
    * such aligned strict preferences the stable matching is unique and
    * can be computed by repeatedly matching every cell that is
    * simultaneously the best of its row and of its column among the
    * unmatched entities (any such mutual-best pair blocks every matching
    * that omits it, so it belongs to every stable matching). Each round
    * is one [[SimilarityMatrix.lineBests]] over the unmatched cells. The
    * globally-top remaining cell is always mutual-best, so a round that
    * finds no mutual pair has no cell left; the loop ends then, or as soon
    * as a round matches every remaining row or column. This "parallel
    * proposal wave" formulation matches whole batches per round —
    * typically O(log n) rounds instead of the O(n²) single-proposal
    * rounds of textbook Gale–Shapley — and returns exactly the matching
    * of [[referenceDaa]], which the test suite verifies.
    *
    * @param m similarity matrix `(src, dst, score)`; a missing cell means
    *          the pair is unacceptable to both sides, so preference lists
    *          may be incomplete and the matrix rectangular
    * @return matches `(src, dst)`: the unique stable matching, one-to-one;
    *         an entity stays unmatched only when everyone it has a cell
    *         with prefers their own match (with complete lists, every
    *         source is matched when `#src <= #dst`)
    */
  def daa(spark: SparkSession, m: DataFrame): DataFrame = {
    import spark.implicits._
    val cells = SimilarityMatrix.cellRdd(m).persist(StorageLevel.MEMORY_AND_DISK)
    val matched = mutable.Map.empty[Long, Long] // src -> dst
    var done = false
    while (!done) {
      val (ms, md) = (matched.keySet.toSet, matched.values.toSet)
      val lb = SimilarityMatrix.lineBests(cells.filter { case (s, d, _) => !ms(s) && !md(d) })
      val mutual = lb.rowBest.collect { case (s, (d, _)) if lb.colBest(d)._1 == s => (s, d) }
      matched ++= mutual
      done = mutual.isEmpty || mutual.size == lb.rowBest.size || mutual.size == lb.colBest.size
    }
    cells.unpersist()
    matched.toSeq.toDF("src", "dst")
  }

  /** Sequential Gale–Shapley on the driver with identical tie-breaking —
    * the correctness oracle for [[daa]] and a fast path for tests.
    */
  def referenceDaa(cells: Seq[(Long, Long, Double)]): Map[Long, Long] = {
    val prefs: Map[Long, Array[(Long, Double)]] =
      cells.groupBy(_._1).map { case (s, rows) =>
        s -> rows.map { case (_, d, sc) => (d, sc) }.sortBy { case (d, sc) => (-sc, d) }.toArray
      }
    val score: Map[(Long, Long), Double] =
      cells.map { case (s, d, sc) => (s, d) -> sc }.toMap

    val next = mutable.Map.empty[Long, Int].withDefaultValue(0)
    val engagedTo = mutable.Map.empty[Long, Long] // dst -> src
    val free = mutable.Queue.empty[Long]
    free ++= prefs.keys.toSeq.sorted

    while (free.nonEmpty) {
      val u = free.dequeue()
      val list = prefs(u)
      if (next(u) < list.length) {
        val (v, sc) = list(next(u))
        next(u) += 1
        engagedTo.get(v) match {
          case None => engagedTo(v) = u
          case Some(cur) =>
            val curSc = score((cur, v))
            val newWins = sc > curSc || (sc == curSc && u < cur)
            if (newWins) { engagedTo(v) = u; free.enqueue(cur) }
            else free.enqueue(u)
        }
      } // else: exhausted list, stays unmatched
    }
    engagedTo.map { case (v, u) => u -> v }.toMap
  }

  /** Blocking pairs of a matching under the matrix's preferences — empty
    * iff the matching is stable. Exposed for property tests.
    */
  def blockingPairs(cells: Seq[(Long, Long, Double)],
                    matching: Map[Long, Long]): Seq[(Long, Long)] = {
    val score = cells.map { case (s, d, sc) => (s, d) -> sc }.toMap
    val partnerOfDst = matching.map(_.swap)
    def srcPrefers(u: Long, v: Long): Boolean = matching.get(u) match {
      case None => true // unmatched source prefers anyone it can score
      case Some(cur) =>
        val a = score((u, v)); val b = score((u, cur))
        a > b || (a == b && v < cur)
    }
    def dstPrefers(v: Long, u: Long): Boolean = partnerOfDst.get(v) match {
      case None => true
      case Some(cur) =>
        val a = score((u, v)); val b = score((cur, v))
        a > b || (a == b && u < cur)
    }
    cells.collect {
      case (u, v, _) if matching.get(u) != Some(v) && srcPrefers(u, v) && dstPrefers(v, u) =>
        (u, v)
    }
  }
}
