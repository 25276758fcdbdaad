package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.EaBenchmark
import repro.text.Levenshtein

/** String feature `M^l`: Levenshtein ratio between entity names (paper
  * §IV-C), with substitution cost 2 (`lev*`), scored over the test domain.
  */
object StringFeature {

  /** `M^l` over `domain`: the Levenshtein ratio of the two entities' names. */
  def similarity(b: EaBenchmark, domain: DataFrame): DataFrame = {
    val spark = domain.sparkSession
    import spark.implicits._
    def names(df: DataFrame): Map[Long, String] =
      df.select(col("id"), col("name")).as[(Long, String)].collect().toMap
    SimilarityMatrix.scorePairs(domain, names(b.names1), names(b.names2))(Levenshtein.ratio)
  }

  /** Full `M^l` for a benchmark. */
  def matrix(spark: SparkSession, b: EaBenchmark): DataFrame =
    similarity(b, SimilarityMatrix.testDomain(b.test))
}
