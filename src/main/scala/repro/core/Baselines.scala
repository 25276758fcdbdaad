package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.{BenchmarkGen, EaBenchmark}
import repro.text.HashVectors

/** Proxy baselines spanning the classes of the paper's 11 competitors
  * (DESIGN.md §2). Each produces a *similarity matrix*; decisions are
  * made independently (row-argmax) as in all competitor systems.
  *
  * | proxy            | paper class                         | mechanism |
  * |------------------|-------------------------------------|-----------|
  * | structShallow    | structure-only, 1-hop               | direct seed-neighbour fingerprint |
  * | structStandard   | structure-only, 2-hop (GCN-class)   | 2-hop propagation |
  * | structDeep       | structure-only, long-range (RSNs/NAEA-class) | 3-hop propagation |
  * | structBootstrap  | IPTransE, BootEA (iterative seeds)  | confident matches appended to seeds, re-propagate |
  * | repFusion        | RDGCN, GM-Align, MultiKE            | one unified structure+name vector per entity — representation-level fusion |
  *
  * Within the structure-only group the depth/accuracy relationship is
  * substrate-dependent: on dense KGs the 1-hop fingerprint is already
  * sharp, while on sparse (SRPRS-like) KGs deeper propagation pays —
  * the analogue of the paper's observation that RSNs overtakes other
  * structure-only methods exactly on SRPRS.
  */
object Baselines {

  /** The ordered baseline roster used by the result tables. */
  val names: Seq[String] =
    Seq("structShallow", "structStandard", "structDeep", "structBootstrap", "repFusion")

  /** Structure-only similarity matrix with the given propagation depth. */
  def structMatrix(spark: SparkSession, b: EaBenchmark, layers: Int,
                   dim: Int = BenchmarkGen.Dim): DataFrame =
    StructuralFeature.matrix(spark, b, dim = dim, layers = layers)

  /** Bootstrapped structure-only matrix: after each round, cells maximal
    * in both row and column (mutual best matches — BootEA's one-to-one
    * constrained strategy) are promoted to anchor pairs and propagation
    * is re-run.
    */
  def bootstrapMatrix(spark: SparkSession, b: EaBenchmark, rounds: Int = 2,
                      dim: Int = BenchmarkGen.Dim): DataFrame = {
    require(rounds >= 1, "need at least one bootstrap round")
    import spark.implicits._
    var anchors = Set.empty[(Long, Long)]
    var m = StructuralFeature.matrix(spark, b, dim = dim)
    for (_ <- 2 to rounds) {
      // Only unambiguous mutual-best pairs may become anchors: positive
      // score, and a source/target that appears in exactly one confident
      // cell (zero rows/columns on sparse KGs otherwise tie pairwise and
      // would flood the seed set with conflicting k² pairs).
      val cand = SimilarityMatrix.positiveConfident(m)
      val srcCount = cand.groupBy(_._1).view.mapValues(_.size).toMap
      val dstCount = cand.groupBy(_._2).view.mapValues(_.size).toMap
      anchors ++= cand.collect { case (s, d, _) if srcCount(s) == 1 && dstCount(d) == 1 => (s, d) }
      m = StructuralFeature.matrix(spark, b, dim = dim,
        extraPairs = Some(anchors.toSeq.toDF("src", "dst")))
    }
    m
  }

  /** Representation-level fusion proxy: each entity gets ONE unified
    * vector — the concatenation of its L2-normalised structural and name
    * embeddings — and all decisions are made on that single vector
    * (RDGCN/GM-Align/MultiKE-style). This is the paper's critique target:
    * the feature mix is frozen into the representation (implicitly
    * equal-weighted, norm-coupled, stringless), so feature-specific
    * detail cannot be re-weighted at decision time.
    */
  def repFusionMatrix(spark: SparkSession, b: EaBenchmark,
                      dim: Int = BenchmarkGen.Dim): DataFrame = {
    def unified(triples: DataFrame, names: DataFrame, dict: DataFrame,
                anchors: DataFrame): Map[Long, Array[Double]] = {
      val se = SimilarityMatrix.vectors(StructuralFeature.embed(spark, triples,
        names.select(col("id")), anchors, dim = dim))
      val ne = SimilarityMatrix.vectors(SemanticFeature.nameEmbeddings(spark, names, dict, dim))
      for ((id, sv) <- se; nv <- ne.get(id))
        yield id -> (HashVectors.normalize(sv) ++ HashVectors.normalize(nv))
    }
    val (a1, a2) = StructuralFeature.anchors(spark, b.seeds, dim)
    SimilarityMatrix.scorePairs(SimilarityMatrix.testDomain(b.test),
      unified(b.triples1, b.names1, b.dict1, a1),
      unified(b.triples2, b.names2, b.dict2, a2))(HashVectors.cosine)
  }

  /** Similarity matrix for a named proxy baseline. */
  def matrix(spark: SparkSession, b: EaBenchmark, name: String): DataFrame = name match {
    case "structShallow"   => structMatrix(spark, b, layers = 1)
    case "structStandard"  => structMatrix(spark, b, layers = 2)
    case "structDeep"      => structMatrix(spark, b, layers = 3)
    case "structBootstrap" => bootstrapMatrix(spark, b)
    case "repFusion"       => repFusionMatrix(spark, b)
    case other => throw new IllegalArgumentException(s"unknown baseline '$other'")
  }

  /** Independent-decision accuracy of a named baseline. */
  def accuracy(spark: SparkSession, b: EaBenchmark, name: String): Double = {
    val m = matrix(spark, b, name).cache()
    val acc = Evaluation.accuracy(SimilarityMatrix.greedyMatch(m), b.test)
    m.unpersist()
    acc
  }
}
