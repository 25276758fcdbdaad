package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.exp.Experiments
import repro.kg.{BenchmarkGen, EaBenchmark, Scenario}

/** A fixed benchmark workload: public pipeline calls made one layer at a
  * time, so a tracer can time each layer and a verifier can check each
  * decision. Outputs are named `<op>.<quantity>`, where an op is one
  * method or config aligned.
  */
trait Workload {
  def name: String
  def scenario: Scenario
  def scale: Double
  /** Ops (methods or configs aligned) per pass. */
  def ops: Int
  /** The accuracy a user of this workload looks at first. */
  def headline(out: Map[String, Double]): Double
  def run(spark: SparkSession, b: EaBenchmark, t: Tracer, v: Verifier): Map[String, Double]
}

object Workloads {
  val all: Seq[Workload] = Seq(CeaffZhEn, BaselinesZhEn)

  def apply(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Generates the KG pair and materialises all eight cached members. */
  def setup(spark: SparkSession, scenario: Scenario, scale: Double, seed: Long): EaBenchmark = {
    val s = Experiments.sizesFor(scenario.group, scale)
    val b = BenchmarkGen.generate(spark, scenario, s.nGold, s.nFringe, seed).cached()
    Seq(b.triples1, b.triples2, b.names1, b.names2, b.dict1, b.dict2, b.seeds, b.test)
      .foreach(_.count())
    b
  }

  /** Input sizes of a set-up benchmark; a feature matrix has `cells` cells. */
  def sizes(b: EaBenchmark): Map[String, Any] = {
    val n = b.test.count()
    Map("gold_pairs" -> b.nGold, "test_pairs" -> n, "cells" -> n * n,
      "entities1" -> b.names1.count(), "entities2" -> b.names2.count(),
      "triples1" -> b.triples1.count(), "triples2" -> b.triples2.count())
  }

  /** `Ceaff.features`, then each cached field forced under its own span. */
  def features(spark: SparkSession, b: EaBenchmark, t: Tracer): FeatureSet = {
    val fs = t("struct.embed") {
      val fs = Ceaff.features(spark, b)
      t.force(fs.structEmb1); t.force(fs.structEmb2)
      fs
    }
    t("sem.embed") { t.force(fs.semEmb1); t.force(fs.semEmb2) }
    t("ms")(t.force(fs.ms))
    t("mn")(t.force(fs.mn))
    t("ml")(t.force(fs.ml))
    fs
  }

  /** `Ceaff.run` and its accuracy, one layer at a time. */
  def decide(spark: SparkSession, b: EaBenchmark, fs: FeatureSet, cfg: CeaffConfig,
             op: String, t: Tracer, v: Verifier): Double = {
    val fr = t("fusion.weights")(Ceaff.fuse(spark, fs, cfg))
    val fused = fr.fused.cache()
    t("fusion.sum")(t.force(fused))
    val matches = t(if (cfg.collective) "match.daa" else "match.greedy")(
      t.cached(Ceaff.align(spark, fused, cfg)))
    val acc = t("eval.accuracy")(Evaluation.accuracy(matches, b.test))
    v.decision(op, fused, matches, cfg.collective, acc)
    fused.unpersist(); matches.unpersist()
    acc
  }
}

/** DBP15K ZH-EN: Table VI's CEAFF rows (features, adaptive two-stage
  * fusion, ranking of the fused matrix, DAA, accuracy), then Table V's LR
  * row (learned weights, fixed-weight fusion, DAA, accuracy).
  */
object CeaffZhEn extends Workload {
  val name = "ceaff-zhen-s1"
  val scenario: Scenario = Scenario.Dbp15kZhEn
  val scale = 1.0
  val ops = 2
  def headline(out: Map[String, Double]): Double = out("ceaff.accuracy")

  def run(spark: SparkSession, b: EaBenchmark, t: Tracer, v: Verifier): Map[String, Double] = {
    val fs = Workloads.features(spark, b, t)
    val fr = t("fusion.weights")(Ceaff.fuse(spark, fs, CeaffConfig()))
    val fused = fr.fused.cache()
    t("fusion.sum")(t.force(fused))
    val rank = t("eval.ranking")(Evaluation.rankingMetrics(fused, b.test))
    val daa: DataFrame = t("match.daa")(StableMatching.daa(spark, fused))
    val acc = t("eval.accuracy")(Evaluation.accuracy(daa, b.test))
    v.ranking("ceaff", fused, rank)
    v.decision("ceaff", fused, daa, collective = true, acc)
    val pairs = daa.count().toDouble
    daa.unpersist(); fused.unpersist()
    val lr = t("lr.learn")(LRFusion.learnWeights(spark, b, fs))
    val lrAcc = Workloads.decide(spark, b, fs, CeaffConfig(fixedWeights = Some(lr)), "LR", t, v)
    fs.unpersistAll()
    Map("ceaff.accuracy" -> acc, "ceaff.hits1" -> rank.hitsAt1,
      "ceaff.hits10" -> rank.hitsAt10, "ceaff.mrr" -> rank.mrr, "ceaff.daa_pairs" -> pairs,
      "LR.accuracy" -> lrAcc) ++
      fr.weights.map { case (f, w) => s"ceaff.weight_$f" -> w } ++
      lr.map { case (f, w) => s"LR.weight_$f" -> w }
  }
}

/** DBP15K ZH-EN: Table III's five baseline proxies, each decided by row
  * argmax. No fusion and no DAA run here.
  */
object BaselinesZhEn extends Workload {
  val name = "baselines-zhen-s0.5"
  val scenario: Scenario = Scenario.Dbp15kZhEn
  val scale = 0.5
  val ops: Int = Baselines.names.size
  def headline(out: Map[String, Double]): Double =
    Baselines.names.map(p => out(s"$p.accuracy")).sum / Baselines.names.size

  /** `Baselines.accuracy` for each proxy, one layer at a time. */
  def run(spark: SparkSession, b: EaBenchmark, t: Tracer, v: Verifier): Map[String, Double] =
    Baselines.names.map { p =>
      val m = t(s"baseline.$p") {
        val m = Baselines.matrix(spark, b, p).cache()
        t.force(m)
        m
      }
      val g = t("match.greedy")(t.cached(SimilarityMatrix.greedyMatch(m)))
      val acc = t("eval.accuracy")(Evaluation.accuracy(g, b.test))
      v.decision(p, m, g, collective = false, acc)
      g.unpersist(); m.unpersist()
      s"$p.accuracy" -> acc
    }.toMap
}
