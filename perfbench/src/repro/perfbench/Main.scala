package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.perfbench.ListenerDrain
import org.apache.spark.sql.SparkSession
import repro.core.Baselines
import repro.exp.Experiments
import repro.kg.EaBenchmark
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Runs one workload for a fixed time and writes a JSON report.
  *
  * Usage: `Main --workload W --seconds S --trace 0|1 --cores N --report FILE
  * [--seed N] [--scale X]`. `perfbench/run.py` builds the classpath and
  * turns the report into the benchmark's result line.
  */
object Main {
  val ShufflePartitions = 8

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads(kv("workload"))
    val cores = kv("cores").toInt
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    try {
      val runner = new Runner(spark, w,
        scale = kv.get("scale").map(_.toDouble).getOrElse(w.scale),
        seed = kv.get("seed").map(_.toLong).getOrElse(Experiments.seedFor(w.scenario)),
        seconds = kv("seconds").toDouble, trace = kv("trace") == "1", cores = cores)
      Files.writeString(Paths.get(kv("report")), Json(runner.run()))
    } finally spark.stop()
  }
}

/** One set-up plus one pass of the workload body. `counts` are per job
  * group, set-up included; the other fields cover the body only and leave
  * out the verifier's checking.
  */
final case class Pass(kind: String, index: Int, setupS: Double, runS: Double,
                      counts: Map[String, Counts], shuffleBytes: Long, peakBytes: Long)

/** Passes of one workload in one fresh JVM.
  *
  * Untraced (`trace` false): verified passes while `seconds` allow, at
  * least one, then extra set-ups until there are [[Runner.SetUps]] set-up
  * times. The first pass is the JVM's cold one, as in a batch job.
  *
  * Traced: a verified cold pass, then a traced and an untraced warm pass
  * in turn while `seconds` allow, at least one of each.
  *
  * Every pass starts from empty caches and a freshly generated benchmark,
  * so no pass reuses another's cached data, and every pass must reproduce
  * the first pass's outputs.
  */
final class Runner(spark: SparkSession, w: Workload, scale: Double, seed: Long,
                   seconds: Double, trace: Boolean, cores: Int) {
  private val sc = spark.sparkContext
  private val meter = new Meter
  sc.addSparkListener(meter)
  private val tracer = new Tracer(sc)
  private var attempted = 0L
  private var failed = 0L
  private val failures = ArrayBuffer.empty[String]
  private var expected = Map.empty[String, Double]
  private var sizes = Map.empty[String, Any]
  private val setups = ArrayBuffer.empty[Double]

  private def counts(): Map[String, Counts] = { ListenerDrain(sc); meter.byGroup }

  private def delta(after: Map[String, Counts], before: Map[String, Counts]): Map[String, Counts] =
    after.map { case (g, c) => g -> (c - before.getOrElse(g, Counts.Zero)) }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Drops every cached Dataset and RDD, then generates a fresh benchmark. */
  private def setUp(): EaBenchmark = {
    spark.catalog.clearCache()
    sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    System.gc()
    val t0 = System.nanoTime()
    val b = tracer("kg")(Workloads.setup(spark, w.scenario, scale, seed))
    setups += secondsSince(t0)
    b
  }

  /** Sets up and runs one pass. Outputs that differ from the first pass's,
    * and decisions the verifier rejects, count as failed ops.
    */
  private def pass(kind: String, index: Int, traced: Boolean, verify: Boolean): Option[Pass] = {
    tracer.pass = index
    tracer.on = traced
    val c0 = counts()
    val b = setUp()
    tracer.on = false
    if (sizes.isEmpty) sizes = Workloads.sizes(b)
    val v = new Verifier(spark, b, on = verify)
    val c1 = counts()
    meter.resetPeak()
    tracer.on = traced
    val t1 = System.nanoTime()
    val out = try Some(w.run(spark, b, tracer, v)) catch {
      case NonFatal(e) =>
        failures += s"$kind pass $index threw $e"
        None
    }
    val runS = secondsSince(t1) - v.nanos / 1e9
    tracer.on = false
    val c2 = counts()
    attempted += w.ops
    out match {
      case None => failed += w.ops
      case Some(o) =>
        val differ = if (expected.isEmpty) Set.empty[String] else Outputs.differingOps(expected, o)
        differ.foreach(op => failures += s"$kind pass $index: '$op' differs from the first pass")
        v.failures.foreach { case (op, msgs) =>
          failures += s"$kind pass $index: '$op' ${msgs.mkString("; ")}"
        }
        failed += math.min(w.ops, (differ ++ v.failures.keySet).size)
        if (expected.isEmpty) expected = o
    }
    Console.err.println(f"[perfbench] ${w.name} $kind pass $index: " +
      f"set-up ${setups.last}%.2f s, run $runS%.2f s, checking ${v.nanos / 1e9}%.2f s")
    val body = delta(c2, c1) - Verifier.Group
    out.map(_ => Pass(kind, index, setups.last, runS, delta(c2, c0),
      body.values.map(_.shuffleBytes).sum, meter.peakBytes))
  }

  def run(): Map[String, Any] = {
    val window = System.nanoTime()
    val first = pass("first", 0, traced = false, verify = true)
    val untraced = ArrayBuffer.from(first)
    val traced = ArrayBuffer.empty[Pass]
    val perRound = if (trace) 2 else 1
    def roomForRound =
      secondsSince(window) * (1 + perRound.toDouble / (untraced.size + traced.size)) <= seconds
    var index = 1
    var going = first.isDefined
    while (going && (trace && traced.isEmpty || roomForRound)) {
      // A traced pass runs before its untraced twin, so the JIT's warming
      // over the run can overstate trace_overhead_s but never hide it.
      val round =
        if (!trace) pass("untraced", index, traced = false, verify = true).toSeq
        else pass("traced", index, traced = true, verify = false).toSeq ++
          pass("untraced", index + 1, traced = false, verify = false).toSeq
      index += perRound
      going = round.size == perRound
      untraced ++= round.filter(_.kind == "untraced")
      traced ++= round.filter(_.kind == "traced")
    }
    while (going && !trace && setups.size < Runner.SetUps) setUp()
    val metrics =
      if (first.isEmpty || trace && (traced.isEmpty || untraced.size < 2)) Map.empty[String, Double]
      else if (trace) Layers.metrics(tracer.spans, traced.toSeq, untraced.tail.toSeq, cores,
        nTest = sizes("test_pairs").asInstanceOf[Long]) +
        ("jvm.cold_extra_s" -> (untraced.head.runS - Stats.median(untraced.tail.map(_.runS).toSeq)))
      else endToEnd(untraced.toSeq)
    Map(
      "workload" -> w.name, "scenario" -> w.scenario.name, "seed" -> seed, "scale" -> scale,
      "trace" -> trace,
      "settings" -> Map(
        "master" -> sc.master, "cores" -> cores,
        "shuffle_partitions" -> Main.ShufflePartitions, "broadcast_joins" -> false,
        "driver_max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
        "spark" -> sc.version, "java" -> System.getProperty("java.version")),
      "sizes" -> sizes,
      "attempted" -> attempted, "failed" -> failed, "failures" -> failures.toSeq,
      "outputs" -> expected,
      "metrics" -> metrics,
      "setup_s" -> setups.toSeq,
      "passes" -> (untraced ++ traced).map(p => Map(
        "kind" -> p.kind, "index" -> p.index, "setup_s" -> p.setupS, "run_s" -> p.runS,
        "shuffle_mb" -> p.shuffleBytes / 1e6, "peak_cached_mb" -> p.peakBytes / 1e6)),
      "spans" -> tracer.spans.map(s => Map(
        "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "pass" -> s.pass,
        "start_s" -> s.start / 1e9, "end_s" -> s.end / 1e9)))
  }

  private def endToEnd(passes: Seq[Pass]): Map[String, Double] = {
    val runS = Stats.median(passes.map(_.runS))
    Map(
      "setup_s" -> Stats.median(setups.toSeq),
      "run_s" -> runS,
      "aligned_per_s" -> sizes("test_pairs").asInstanceOf[Long] * w.ops / runS,
      "accuracy" -> w.headline(expected),
      "shuffle_mb" -> Stats.median(passes.map(_.shuffleBytes / 1e6)))
  }
}

object Runner {
  val SetUps = 3
}

/** Per-layer metrics from traced passes. */
object Layers {
  val names: Seq[String] = Seq("kg", "struct.embed", "sem.embed", "ms", "mn", "ml",
    "fusion.weights", "fusion.sum", "match.daa", "match.greedy", "eval.accuracy",
    "eval.ranking", "lr.learn")
  val baselines: Seq[String] = Baselines.names.map(p => s"baseline.$p")

  def metrics(spans: Seq[Span], traced: Seq[Pass], untraced: Seq[Pass], cores: Int,
              nTest: Long): Map[String, Double] = {
    val perPass = traced.map { p =>
      val mine = spans.filter(_.pass == p.index)
      val childTime = mine.groupBy(_.parent).map { case (id, cs) => id -> cs.map(_.seconds).sum }
      def self(s: Span): Double = s.seconds - childTime.getOrElse(s.id, 0.0)
      def layer(l: String): Map[String, Double] = {
        val ss = mine.filter(_.name == l)
        val c = p.counts.getOrElse(l, Counts.Zero)
        val wall = ss.map(self).sum
        Map("wall_s" -> wall, "calls" -> ss.size.toDouble, "jobs" -> c.jobs.toDouble,
          "tasks" -> c.tasks.toDouble, "task_s" -> c.taskMs / 1e3,
          "shuffle_mb" -> c.shuffleBytes / 1e6,
          "util" -> (if (wall > 0) c.taskMs / 1e3 / (wall * cores) else 0.0))
      }
      val fine = names.flatMap(l => layer(l).map { case (k, v) => s"$l.$k" -> v }) ++
        baselines.flatMap { l =>
          val m = layer(l)
          Seq(s"$l.wall_s" -> m("wall_s"), s"$l.jobs" -> m("jobs"))
        }
      val daa = layer("match.daa")
      val rounds = daa("jobs") - daa("calls")
      val covered = mine.filter(s => s.parent == -1 && s.name != "kg").map(_.seconds).sum
      (fine ++ Seq(
        "match.daa.rounds" -> (if (daa("calls") > 0) rounds / daa("calls") else 0.0),
        "match.daa.pairs_per_round" -> (if (rounds > 0) nTest * daa("calls") / rounds else 0.0),
        "unattributed_s" -> (p.runS - covered),
        "cache.peak_mb" -> p.peakBytes / 1e6)).toMap
    }
    val med = perPass.head.keys.map(k => k -> Stats.median(perPass.map(_(k)))).toMap
    med + ("trace_overhead_s" ->
      (Stats.median(traced.map(_.runS)) - Stats.median(untraced.map(_.runS))))
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** Comparing two passes' outputs. Accuracies and Hits@k are ratios of
  * counts and must match exactly; fusion weights and MRR are float sums
  * and match to 1e-9.
  */
object Outputs {
  def tolerance(key: String): Double =
    if (key.contains(".weight_") || key.endsWith(".mrr")) 1e-9 else 0.0

  def op(key: String): String = key.take(key.lastIndexOf('.'))

  def differingOps(a: Map[String, Double], b: Map[String, Double]): Set[String] =
    (a.keySet ++ b.keySet).filter { k =>
      (a.get(k), b.get(k)) match {
        case (Some(x), Some(y)) => !(math.abs(x - y) <= tolerance(k))
        case _ => true
      }
    }.map(op)
}

/** Minimal JSON writer for the report: maps, sequences, strings, numbers
  * and booleans. Map keys are written sorted; non-finite numbers as null.
  */
object Json {
  def apply(v: Any): String = v match {
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] =>
      m.toSeq.map { case (k, x) => k.toString -> x }.sortBy(_._1)
        .map { case (k, x) => quote(k) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(apply).mkString("[", ",", "]")
    case null => "null"
    case other => quote(other.toString)
  }

  private def quote(s: String): String = s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  }.mkString("\"", "", "\"")
}
