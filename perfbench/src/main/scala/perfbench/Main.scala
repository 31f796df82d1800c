package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Counts the Spark jobs and task run time of each search pass. The pass id
  * travels as a job-local property, so set-up, winner valuation and collect
  * replay are not counted.
  */
final class SparkCounter extends SparkListener {
  private val stagePass = mutable.Map.empty[Int, Int]
  private val jobs = mutable.Map.empty[Int, Int].withDefaultValue(0)
  private val taskMs = mutable.Map.empty[Int, Long].withDefaultValue(0L)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Main.PassKey))).foreach { p =>
      jobs(p.toInt) += 1
      e.stageIds.foreach(stagePass(_) = p.toInt)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (p <- stagePass.get(e.stageId); m <- Option(e.taskMetrics)) taskMs(p) += m.executorRunTime
  }

  def jobsOf(pass: Int): Int = synchronized(jobs(pass))
  def taskSecondsOf(pass: Int): Double = synchronized(taskMs(pass) / 1e3)
}

/** One variant's run within a pass. `lift` is the primary measure of the
  * exact valuation of its `bestBy(primary)` winner, divided by that measure
  * on the lake's full dataset; None when a check failed.
  */
final case class VariantRun(name: String, result: Option[ModisResult], nanos: Long,
                            lift: Option[Double], gcNanos: Long)

/** The four variants run once each on one lake. */
final case class Pass(id: Int, lake: Int, traced: Boolean, runs: Vector[VariantRun]) {
  def searchSeconds: Double = runs.map(_.nanos).sum / 1e9
  def primaryLift: Double = runs.map(_.lift.getOrElse(0.0)).sum / runs.size
  def failed: Int = runs.count(_.lift.isEmpty)
}

/** MODis skyline-search benchmark.
  *
  * A pass runs ApxMODis, NOBiMODis, BiMODis and DivMODis once each on one
  * lake, every variant on a fresh state space and a fresh
  * `SurrogateValuator`, the way `Runner.modisReports` does. The seed yields
  * a workload's few lakes, since a single lake's search work varies with its
  * seed; passes go round-robin over them. After untimed warm-up passes for
  * a third of `--seconds` (and one per lake where the search runs Spark
  * queries), passes run back to back (a closed loop with one
  * caller) until `--seconds` have passed, and metrics are medians over the
  * timed passes. With `--trace 1`, passes alternate between traced (space
  * and valuator wrapped in span-recording decorators) and untraced, and the
  * run reports per-layer metrics instead of end-to-end ones.
  *
  * Usage: Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
  * The last stdout line is the JSON result; the exit code is 1 when an
  * output check failed.
  */
object Main {
  val PassKey = "perfbench.pass"
  /** Lake i of a run is generated with seed + i * LakeSeedStride. */
  val LakeSeedStride = 1000003L

  val Variants: Vector[(String, (StateSpace, Valuator, ModisConfig) => ModisResult)] =
    Vector("apx" -> ApxMODis.run _, "nobi" -> NOBiMODis.run _,
      "bi" -> BiMODis.run _, "div" -> DivMODis.run _)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = Workloads.all.find(w => opts.get("workload").contains(w.name)).getOrElse {
      System.err.println(s"usage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "[--seed n] [--seconds s] [--trace 0|1]")
      sys.exit(2)
    }
    val seed = opts.get("seed").map(_.toLong).getOrElse(workload.defaultSeed)
    val seconds = opts.get("seconds").map(_.toDouble).getOrElse(10.0)
    val trace = opts.get("trace").contains("1")
    val workDir = new File(sys.props.getOrElse("perfbench.work", "perfbench/.work"))

    val spark = SparkSession.builder
      .master(s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]")
      .appName("perfbench")
      // as the test and table suites run the program
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark").getAbsolutePath)
      .getOrCreate()
    val code =
      try new Run(spark, workload, seed, seconds, trace, workDir).apply()
      finally spark.stop()
    sys.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.size).toInt - 1))
  }

  /** Progress line on stderr, with seconds since the JVM started. */
  def log(msg: String): Unit =
    System.err.println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.1fs] $msg")

  def gcNanos(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum * 1000000L
}

final class Run(spark: SparkSession, w: Workload, seed: Long, seconds: Double,
                trace: Boolean, workDir: File) {
  import Main._

  private val sc = spark.sparkContext
  private val tracer = new Tracer
  private val counter = new SparkCounter
  private val problems = mutable.ArrayBuffer.empty[String]

  def apply(): Int = {
    sc.addSparkListener(counter)
    val lakeSeeds = (0 until w.lakes).map(i => seed + i * LakeSeedStride)
    log(s"${w.name}: set-up of ${w.lakes} lakes, seeds ${lakeSeeds.mkString(",")}")
    val setups = lakeSeeds.map(s => w.setup(spark, s)).toVector
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    log("output checks at set-up")
    try setups.head.verify()
    catch { case NonFatal(e) => problems += s"set-up check: ${e.getMessage}" }
    // The Original column of Tables 4-5: each lake's primary measure on its
    // full dataset, which winners are compared against.
    val originals = setups.map { setup =>
      val space = setup.newSpace()
      space.evaluate(space.full).map(_.raw(w.primary)).getOrElse(
        throw new IllegalStateException(s"${w.name}: full dataset unusable"))
    }

    // Passes go round-robin over the lakes. The first third of --seconds is
    // an untimed warm-up, so that the JIT has settled. Spark generates code
    // for each distinct query, and a lake's states make their own queries,
    // so on a Spark-backed workload every lake also gets one warm-up pass.
    // Timed passes then follow until --seconds have passed, at least one per
    // lake. A traced run takes at least two passes per lake and traces every
    // other pass, flipping the parity after each lap over the lakes, so that
    // every lake has traced and untraced passes.
    def since(t: Long) = (System.nanoTime() - t) / 1e9
    val warmups = mutable.ArrayBuffer.empty[Pass]
    val w0 = System.nanoTime()
    val minWarmups = if (setups.head.universal.isDefined) setups.size else 1
    while (warmups.size < minWarmups || since(w0) < seconds / 3) {
      val lake = warmups.size % setups.size
      val p = pass(warmups.size + 1, lake, traced = false, setups(lake), originals(lake))
      warmups += p
      log(f"warm-up pass ${p.id} lake $lake: search ${p.searchSeconds}%.3f s")
    }
    val passes = mutable.ArrayBuffer.empty[Pass]
    val replaySeconds = mutable.Map.empty[Int, Double]
    val minPasses = setups.size * (if (trace) 2 else 1)
    val t0 = System.nanoTime()
    while (passes.size < minPasses || since(t0) < seconds) {
      val id = warmups.size + passes.size + 1
      val lake = (id - 1) % setups.size
      val lap = passes.size / setups.size
      val traced = trace && (passes.size % setups.size + lap) % 2 == 0
      val p = pass(id, lake, traced, setups(lake), originals(lake))
      if (p.traced) replaySeconds(p.id) = replayCollects(p.id, setups(lake))
      passes += p
      log(f"pass $id lake $lake${if (p.traced) " (traced)" else ""}: search ${p.searchSeconds}%.3f s")
    }
    ListenerBusDrain(sc)

    val all = warmups.toVector ++ passes
    val attempted = all.map(_.runs.size).sum
    val failed = all.map(_.failed).sum
    val metrics: Vector[(String, Double, String)] =
      if (!trace) Vector(
        ("setup_s", median(setups.map(_.seconds)), "s"),
        ("search_s", median(passes.map(_.searchSeconds).toSeq), "s"),
        ("primary_lift", median(passes.map(_.primaryLift).toSeq), "ratio"),
        ("heap_mb", heapMb, "MB"),
        ("success_frac", 1.0 - failed.toDouble / attempted, "frac"),
      )
      else {
        tracer.writeSpans(new File(workDir, s"spans-${w.name}-seed$seed.tsv"))
        val traced = passes.filter(_.traced).toVector
        val untraced = passes.filterNot(_.traced).toVector
        val perPass = traced.map(p => layerMetrics(p, replaySeconds(p.id)))
        val setupKeys = setups.head.times.keys.toVector.sorted
        perPass.head.keys.toVector.sorted.map { k =>
          val unit = if (k.endsWith("_s")) "s" else if (k.endsWith("_p50") || k.endsWith("_p90")) "ms"
            else "count"
          (k, median(perPass.map(_(k))), unit)
        } ++ setupKeys.map(k => (k, median(setups.map(_.times(k))), "s")) ++ Vector(
          ("pareto.skyline_repeat", skylineRepeat(all), "frac"),
          ("trace.overhead_s",
            median(traced.map(_.searchSeconds)) - median(untraced.map(_.searchSeconds)), "s"))
      }

    for ((k, v, u) <- metrics) println(f"${w.name}%-14s $k%-28s $v%14.6f $u")
    println(s"${w.name} seed=$seed: medians of ${passes.count(!_.traced)} untraced and " +
      s"${passes.count(_.traced)} traced passes over ${w.lakes} lakes " +
      s"after ${warmups.size} warm-up passes; " +
      s"variant runs attempted=$attempted failed=$failed")
    println(s"${w.name} original ${w.primary} per lake: ${originals.map(o => f"$o%.4f").mkString(", ")}")
    problems.distinct.foreach(p => println(s"CHECK FAILED: $p"))
    val correct = problems.isEmpty
    val metricJson = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metricJson.mkString(", ")}}}""")
    if (correct) 0 else 1
  }

  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v")
    java.lang.Double.toString(v)
  }

  /** One pass: every variant on one lake, each on a fresh space and
    * valuator. Checks each variant's output; a failed check is recorded and
    * fails the run.
    */
  private def pass(id: Int, lake: Int, traced: Boolean, setup: Setup, original: Double): Pass = {
    tracer.pass = id
    System.gc()
    val runs = Variants.map { case (v, algo) =>
      val base = setup.newSpace()
      val space = if (traced) new TracedSpace(base, tracer) else base
      val surrogate = new SurrogateValuator(space, w.cfg.bootstrap)
      val valuator = if (traced) new TracedValuator(surrogate, tracer) else surrogate
      sc.setLocalProperty(PassKey, id.toString)
      val gc0 = gcNanos()
      val t0 = System.nanoTime()
      val result =
        try Right(if (traced) tracer.root(s"engine.$v")(algo(space, valuator, w.cfg))
                  else algo(space, valuator, w.cfg))
        catch { case NonFatal(e) => Left(e.toString) }
      val nanos = System.nanoTime() - t0
      val gc = gcNanos() - gc0
      sc.setLocalProperty(PassKey, null)
      val lift = result.flatMap(r => checked(space, surrogate, r)) match {
        case Right(x) => Some(x / original)
        case Left(err) => problems += s"pass $id lake $lake variant $v: $err"; None
      }
      VariantRun(v, result.toOption, nanos, lift, gc)
    }
    Pass(id, lake, traced, runs)
  }

  /** Output checks on one variant run; returns the winner's primary measure. */
  private def checked(space: StateSpace, valuator: Valuator, r: ModisResult): Either[String, Double] = {
    val ms = space.measures
    val badVector = r.skyline.find { case (_, v) =>
      v.length != ms.size || v.indices.exists(i => !(v(i) > 0 && v(i) <= ms(i).upper))
    }
    if (r.skyline.isEmpty) Left("empty skyline")
    else if (badVector.isDefined)
      Left(s"skyline vector ${badVector.get._2.mkString("[", ",", "]")} outside (0, upper]")
    else if (r.valuated > w.cfg.n) Left(s"valuated ${r.valuated} > n=${w.cfg.n}")
    else {
      val winner = r.bestBy(ms.indexWhere(_.name == w.primary)).get._1
      valuator.exact(winner) match {
        case Some(e) => Right(e.raw(w.primary))
        case None    => Left(s"winner $winner is unusable")
      }
    }
  }

  /** Re-runs `materialize(s).collect()` for every state a traced pass
    * evaluated exactly, outside timing; returns the summed collect time.
    */
  private def replayCollects(id: Int, setup: Setup): Double = setup.universal match {
    case None => 0.0
    case Some(u) =>
      tracer.evals.filter(e => e.pass == id && e.fresh).map { e =>
        val t0 = System.nanoTime()
        u.materialize(e.state).collect()
        (System.nanoTime() - t0) / 1e9
      }.sum
  }

  /** Share of variant runs whose skyline states equal those of the same
    * variant's previous pass on the same lake (ROADMAP item 2).
    */
  private def skylineRepeat(all: Vector[Pass]): Double = {
    val pairs = for {
      lakePasses <- all.groupBy(_.lake).values.toVector
      Vector(a, b) <- lakePasses.sortBy(_.id).sliding(2).toVector
      (ra, rb) <- a.runs.zip(b.runs)
    } yield (ra.result, rb.result) match {
      case (Some(x), Some(y)) => x.skyline.map(_._1).toSet == y.skyline.map(_._1).toSet
      case _                  => false
    }
    pairs.count(identity).toDouble / pairs.size
  }

  /** Per-layer metrics of one traced pass, from its spans, its exact
    * evaluations, the valuator outcomes and the Spark listener.
    */
  private def layerMetrics(p: Pass, collectS: Double): Map[String, Double] = {
    ListenerBusDrain(sc)
    val spans = tracer.spans.filter(_.pass == p.id)
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.filter(_.parent >= 0).foreach(s => childNs(s.parent) += s.nanos)
    def selfS(pred: Span => Boolean) = spans.filter(pred).map(s => s.nanos - childNs(s.id)).sum / 1e9
    def totalS(name: String) = spans.filter(_.name == name).map(_.nanos).sum / 1e9
    def calls(name: String) = spans.count(_.name == name).toDouble

    val evals = tracer.evals.filter(e => e.pass == p.id && e.fresh)
    val fitS = evals.flatMap(_.result).map(_.raw("train")).sum
    val evalS = totalS("space.evaluate")
    val evalMs = spans.filter(_.name == "space.evaluate").map(_.nanos / 1e6).toSeq

    val perVariant = p.runs.flatMap { r =>
      val res = r.result.getOrElse(ModisResult(Vector.empty, 0, 0))
      val v = s"engine.${r.name}"
      Vector(s"$v.run_s" -> r.nanos / 1e9, s"$v.valuated" -> res.valuated.toDouble,
        s"$v.explored" -> res.explored.toDouble, s"$v.pruned" -> res.pruned.toDouble,
        s"$v.skyline" -> res.skyline.size.toDouble)
    }
    val dominatedPairs = p.runs.flatMap(_.result).map { r =>
      val vs = r.skyline.map(_._2)
      (for (i <- vs.indices; j <- vs.indices if i != j && Pareto.dominates(vs(i), vs(j))) yield 1).size
    }.sum

    // Every span nests under one variant's root span, so the self times of
    // engine, valuator and space spans partition the variants' run time.
    val runS = spans.filter(_.parent < 0).map(_.nanos).sum / 1e9
    val accountedS = selfS(_.parent < 0) + selfS(_.name == "valuator.valuate") +
      spans.filter(_.name.startsWith("space.")).map(_.nanos).sum / 1e9
    log(f"pass ${p.id} layer self times: $accountedS%.3f s of $runS%.3f s run")

    Map(
      "universal.collect_s" -> collectS,
      "spark.jobs" -> counter.jobsOf(p.id).toDouble,
      "spark.task_s" -> counter.taskSecondsOf(p.id),
      "task.prep_s" -> (evalS - collectS - fitS),
      "jvm.gc_s" -> p.runs.map(_.gcNanos).sum / 1e9,
      "ml.fit_s" -> fitS,
      "space.rowcount.calls" -> calls("space.rowcount"),
      "space.rowcount_s" -> totalS("space.rowcount"),
      "valuator.self_s" -> selfS(_.name == "valuator.valuate"),
      "engine.self_s" -> selfS(_.parent < 0),
      "space.features_s" -> totalS("space.features"),
      "space.neighbors_s" -> totalS("space.neighbors"),
      "space.evaluate.calls" -> calls("space.evaluate"),
      "space.evaluate_s" -> evalS,
      "space.evaluate.ms_p50" -> (if (evalMs.isEmpty) 0.0 else percentile(evalMs, 0.5)),
      "space.evaluate.ms_p90" -> (if (evalMs.isEmpty) 0.0 else percentile(evalMs, 0.9)),
      "space.evaluate.unusable" -> evals.count(_.result.isEmpty).toDouble,
      "space.backstart_s" -> totalS("space.backstart"),
      "valuator.exact" -> tracer.outcomes((p.id, "exact")).toDouble,
      "valuator.estimated" -> tracer.outcomes((p.id, "estimated")).toDouble,
      "valuator.memo_hit" -> tracer.outcomes((p.id, "memo_hit")).toDouble,
      "valuator.rejected" -> tracer.outcomes((p.id, "rejected")).toDouble,
      "pareto.dominated_pairs" -> dominatedPairs.toDouble,
    ) ++ perVariant
  }
}
