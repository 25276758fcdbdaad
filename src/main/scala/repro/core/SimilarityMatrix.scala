package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.text.HashVectors

/** The best cell of every row and of every column of a matrix.
  *
  * @param rowBest src → (dst, score) of the row's best cell
  * @param colBest dst → (src, score) of the column's best cell
  */
final case class LineBests(rowBest: Map[Long, (Long, Double)],
                           colBest: Map[Long, (Long, Double)])

/** Operations on similarity matrices.
  *
  * A similarity matrix is a DataFrame `(src: Long, dst: Long, score:
  * Double)` dense over (source-test × target-test) entities — the paper's
  * `M^s`, `M^n`, `M^l` and their fusions. Rows are source entities,
  * columns target entities; training (seed) entities are excluded, as in
  * the paper (§VII).
  */
object SimilarityMatrix {

  /** Scores every `(src, dst)` pair of `domain` as `f(left(src),
    * right(dst))`; a pair whose value is missing on either side scores 0.
    * The only place where per-entity values meet pairs: both maps
    * (O(#entities)) are broadcast and each cell is one lookup per side,
    * so no pair row is shuffled. The score is a projection over the
    * domain's own `src`/`dst` columns, so the result keeps the domain's
    * partitioning.
    */
  def scorePairs[A, B](domain: DataFrame, left: Map[Long, A], right: Map[Long, B])
                      (f: (A, B) => Double): DataFrame = {
    val sc = domain.sparkSession.sparkContext
    val (l, r) = (sc.broadcast(left), sc.broadcast(right))
    val score = udf { (s: Long, d: Long) =>
      (l.value.get(s), r.value.get(d)) match {
        case (Some(a), Some(b)) => f(a, b)
        case _                  => 0.0
      }
    }
    domain.select(col("src"), col("dst"), score(col("src"), col("dst")).as("score"))
  }

  /** An embedding table `(id, vec)` collected as id → vector. */
  def vectors(emb: DataFrame): Map[Long, Array[Double]] = {
    val spark = emb.sparkSession
    import spark.implicits._
    emb.select(col("id"), col("vec")).as[(Long, Seq[Double])].collect()
      .map { case (id, v) => id -> v.toArray }.toMap
  }

  /** Cosine-similarity matrix between two embedding tables `(id, vec)`
    * over the given `domain` `(src, dst)` universe (typically
    * testSrc × testDst). Pairs whose either side lacks an embedding (or
    * has a zero vector) score 0.
    */
  def cosineCross(emb1: DataFrame, emb2: DataFrame, domain: DataFrame): DataFrame =
    scorePairs(domain, vectors(emb1), vectors(emb2))(HashVectors.cosine)

  /** The full test domain: test source ids × test target ids (paper: the
    * matrix spans all test entities on both axes). The target ids are
    * hash-partitioned by `dst` once and the source ids are broadcast, so
    * every matrix scored over this domain is `dst`-partitioned by
    * construction and [[weightedSum]] of such matrices shuffles nothing.
    */
  def testDomain(test: DataFrame): DataFrame = {
    // An explicit count: adaptive execution may coalesce a by-column
    // repartition of so few rows, which would leave the cells unspread.
    val parts = test.sparkSession.conf.get("spark.sql.shuffle.partitions").toInt
    test.select(col("dst")).repartition(parts, col("dst"))
      .crossJoin(broadcast(test.select(col("src"))))
      .select(col("src"), col("dst"))
  }

  /** The matrix's cells as an RDD. */
  def cellRdd(m: DataFrame): RDD[(Long, Long, Double)] = {
    val spark = m.sparkSession
    import spark.implicits._
    m.select("src", "dst", "score").as[(Long, Long, Double)].rdd
  }

  /** Best cell of every row and every column, in one composite-key
    * `reduceByKey`; only the O(#rows + #cols) winners reach the driver.
    * The one tie rule of the pipeline: the higher score wins, then the
    * smaller opposite-side id. Greedy matching, confident cells, anchor
    * promotion and every DAA round all decide through this.
    */
  def lineBests(cells: RDD[(Long, Long, Double)]): LineBests = {
    def better(a: (Long, Double), b: (Long, Double)): (Long, Double) =
      if (a._2 > b._2 || (a._2 == b._2 && a._1 < b._1)) a else b
    val bests = cells
      .flatMap { case (s, d, v) => Iterator(((false, s), (d, v)), ((true, d), (s, v))) }
      .reduceByKey(better)
      .collect()
    LineBests(
      bests.collect { case ((false, s), best) => s -> best }.toMap,
      bests.collect { case ((true, d), best) => d -> best }.toMap)
  }

  /** Independent (non-collective) decision rule: per source entity take
    * the highest-scoring target; ties broken towards the smallest target
    * id for determinism. Returns `(src, dst)`.
    */
  def greedyMatch(m: DataFrame): DataFrame = {
    val spark = m.sparkSession
    import spark.implicits._
    lineBests(cellRdd(m)).rowBest.toSeq
      .map { case (s, (d, _)) => (s, d) }.toDF("src", "dst")
  }

  /** Cells that are the maximum of both their row and their column — the
    * paper's *confident correspondences* for one feature (§V). Ties keep
    * every maximal cell; downstream conflict filtering handles them.
    */
  def confidentCells(m: DataFrame): DataFrame = {
    val spark = m.sparkSession
    import spark.implicits._
    val cells = cellRdd(m)
    val lb = lineBests(cells)
    val rowMax = lb.rowBest.map { case (s, (_, v)) => s -> v }
    val colMax = lb.colBest.map { case (d, (_, v)) => d -> v }
    cells.filter { case (s, d, v) => v == rowMax(s) && v == colMax(d) }
      .toDF("src", "dst", "score")
  }

  /** Positive-score confident cells, collected: zero-score cells are
    * never evidence, as all-zero rows and columns of sparse KGs tie
    * pairwise and would flood any candidate set.
    */
  def positiveConfident(m: DataFrame): Seq[(Long, Long, Double)] = {
    val spark = m.sparkSession
    import spark.implicits._
    confidentCells(m).as[(Long, Long, Double)].filter(_._3 > 0).collect().toSeq
  }

  /** Weighted sum `Σ wᵢ·Mᵢ` of matrices over a shared domain. Missing
    * cells contribute 0, so the result is the union of the inputs'
    * supports.
    */
  def weightedSum(spark: SparkSession, terms: Seq[(DataFrame, Double)]): DataFrame = {
    require(terms.nonEmpty, "weightedSum of no matrices")
    terms.map { case (m, w) =>
      m.select(col("src"), col("dst"), (col("score") * lit(w)).as("score"))
    }.reduce(_ union _)
      .groupBy("src", "dst")
      .agg(sum("score").as("score"))
  }
}
