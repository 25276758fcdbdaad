package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Result of one fusion step: per-feature adaptive weights (summing to 1)
  * and the fused similarity matrix `Σ w_k · M^k`.
  */
final case class FusionResult(weights: Map[String, Double], fused: DataFrame)

/** Adaptive feature fusion (paper §V).
  *
  * Outcome-level fusion over similarity matrices. Feature weights are
  * derived from *confident correspondences* — cells maximal in both
  * their row and column — after two filters:
  *  1. conflict filter: if different features propose different targets
  *     for the same source entity, all of that source's candidates drop;
  *  2. shared-by-all filter: a correspondence found by *every* feature
  *     characterises none of them and drops.
  * Each surviving correspondence weighs `1/n` (n = #features that found
  * it), except cells with score `> θ1` which weigh only `θ2` — this caps
  * runaway weight for a feature that is nearly perfect, so weaker
  * features keep contributing. A feature's weight is its share of the
  * total correspondence weight.
  */
object AdaptiveFusion {

  val DefaultTheta1 = 0.98
  val DefaultTheta2 = 0.1

  /** Compute adaptive weights for `features` (name → matrix).
    *
    * Falls back to equal weights when no correspondence survives the
    * filters (e.g. degenerate tiny inputs), so fusion is always defined.
    */
  def adaptiveWeights(spark: SparkSession, features: Seq[(String, DataFrame)],
                      theta1: Double = DefaultTheta1,
                      theta2: Double = DefaultTheta2,
                      thetaCap: Boolean = true): Map[String, Double] = {
    require(features.nonEmpty, "no features to fuse")
    val k = features.size
    if (k == 1) return Map(features.head._1 -> 1.0)

    val candidates = features.flatMap { case (name, m) =>
      SimilarityMatrix.positiveConfident(m).map { case (s, d, v) => (s, d, name, v) }
    }

    // Conflict filter: a source entity for which the features (or a tie
    // within one feature) propose more than one distinct target loses all
    // its candidates.
    val unconflicted = candidates.groupBy(_._1).values
      .filter(_.map(_._2).distinct.size == 1).flatten

    // Shared-by-all filter; each survivor weighs 1/n for the n features
    // that found it, or θ2 when capped. Summed in (src, dst, feature)
    // order so the weights do not depend on the partitioning.
    val weighted = unconflicted.groupBy(c => (c._1, c._2)).values
      .filter(_.size < k)
      .flatMap(cs => cs.map { case (s, d, f, v) =>
        (s, d, f, if (thetaCap && v > theta1) theta2 else 1.0 / cs.size)
      })
      .toSeq.sortBy { case (s, d, f, _) => (s, d, f) }
    val sums = features.map { case (n, _) =>
      weighted.collect { case (_, _, f, w) if f == n => w }.sum
    }
    val total = sums.sum
    if (total <= 0.0) features.map { case (n, _) => n -> 1.0 / k }.toMap
    else features.zip(sums).map { case ((n, _), w) => n -> w / total }.toMap
  }

  /** Adaptive fusion of `features` into one matrix. */
  def fuse(spark: SparkSession, features: Seq[(String, DataFrame)],
           theta1: Double = DefaultTheta1, theta2: Double = DefaultTheta2,
           thetaCap: Boolean = true): FusionResult = {
    val w = adaptiveWeights(spark, features, theta1, theta2, thetaCap)
    FusionResult(w, SimilarityMatrix.weightedSum(spark,
      features.map { case (name, m) => (m, w(name)) }))
  }

  /** Fixed equal-weight fusion — the paper's "w/o AFF" ablation. */
  def fuseEqual(spark: SparkSession, features: Seq[(String, DataFrame)]): FusionResult = {
    require(features.nonEmpty, "no features to fuse")
    val w = 1.0 / features.size
    FusionResult(features.map { case (n, _) => n -> w }.toMap,
      SimilarityMatrix.weightedSum(spark, features.map { case (_, m) => (m, w) }))
  }

  /** Fixed arbitrary-weight fusion (used by the LR baseline). Every fused
    * feature needs a weight ≥ 0; the weights are normalised to sum to 1
    * over the fused features, and weights of other features are ignored.
    */
  def fuseFixed(spark: SparkSession, features: Seq[(String, DataFrame)],
                weights: Map[String, Double]): FusionResult = {
    val names = features.map(_._1)
    names.foreach { n =>
      require(weights.contains(n), s"no fixed weight for feature '$n'")
      require(weights(n) >= 0, s"negative fixed weight for feature '$n': ${weights(n)}")
    }
    val total = names.map(weights).sum
    require(total > 0, s"non-positive total weight: $weights")
    val norm = names.map(n => n -> weights(n) / total).toMap
    FusionResult(norm, SimilarityMatrix.weightedSum(spark,
      features.map { case (n, m) => (m, norm(n)) }))
  }
}
