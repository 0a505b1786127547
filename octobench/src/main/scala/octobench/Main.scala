package octobench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The OCTOPUS service benchmark.
  *
  * One closed-loop client in this process drives the public
  * `repro.engine.Octopus` facade, as an analyst at the demo UI who waits
  * for each answer. Online services run on this thread; offline phases run
  * as Spark jobs on `local[nproc]`. Usage:
  *
  * {{{
  * Main --workload kim|suggest|explore --seed N --seconds S --trace 0|1 --out DIR
  * }}}
  *
  * The last line of standard output is the result object; with `--trace 0`
  * it holds the end-to-end metrics, with `--trace 1` the per-layer ones.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path, stamp: String)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val workload = need("workload")
    require(Workload.all.contains(workload), s"unknown workload $workload; one of ${Workload.all.mkString(", ")}")
    val trace = need("trace")
    require(trace == "0" || trace == "1", "--trace is 0 or 1")
    Args(workload, need("seed").toLong, need("seconds").toDouble, trace == "1",
      Paths.get(kv.getOrElse("out", ".bench_build")), kv.getOrElse("stamp", "{}"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val out = args.out.toAbsolutePath
    val nproc = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName(s"octobench-${args.workload}")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()
    try run(spark, args, nproc)
    finally spark.stop()
    sys.exit(0)
  }

  private val warmupSeconds = 2.0

  /** Least time between yardstick runs in the timed loop. */
  private val yardEveryMs = 100.0

  /** Yardstick runs on each side of an op whose median scales it. */
  private val yardWindow = 5

  /** Yardstick runs before and after each timed set-up. */
  private val setupYardRuns = 3

  private def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile (numpy's default). */
  private def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Live heap bytes: the least heap left by three full collections 200 ms
    * apart, so that Spark's asynchronous cleaners have run and a young
    * collection on another thread in between is not the one read.
    */
  private def liveHeapBytes(): Long =
    (0 until 3).map { i => if (i > 0) Thread.sleep(200); heapAfterGc() }.min

  /** Heap bytes after the full collection `System.gc()` runs. */
  private def heapAfterGc(): Long = {
    System.gc()
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet
    val last = ManagementFactory.getGarbageCollectorMXBeans.asScala
      .collect { case b: com.sun.management.GarbageCollectorMXBean if b.getLastGcInfo != null => b.getLastGcInfo }
      .maxByOption(_.getEndTime)
    last match {
      case Some(info) =>
        info.getMemoryUsageAfterGc.asScala.collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      case None => ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }
  }

  /** (steal, total) jiffies of all CPUs from `/proc/stat`, or zeros where
    * the file does not exist. Time the hypervisor gave the machine's
    * virtual CPUs to other guests counts as steal.
    */
  private def cpuJiffies(): (Long, Long) =
    try {
      val f = Files.readAllLines(Paths.get("/proc/stat")).get(0).trim.split("\\s+").drop(1).map(_.toLong)
      (if (f.length > 7) f(7) else 0L, f.sum)
    } catch { case _: java.io.IOException => (0L, 0L) }

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  def run(spark: SparkSession, args: Args, nproc: Int): Unit = {
    val w = Workload(args.workload)
    val sc = spark.sparkContext
    val traced = if (args.trace) Some(new Traced(new Trace, new PhaseListener(sc))) else None
    var attempted = 0L
    var failed = 0L

    // Offline phases run under a Spark job group; in the traced run the
    // listener also records their stage metrics.
    def phase[A](group: String)(body: => A): (A, Double) = traced match {
      case Some(t) => val (a, s, _) = t.phases.phase(group)(body); (a, s)
      case None    => Phases.grouped(sc, group)(body)
    }

    val (ds, genS) = phase("data.gen")(w.generate(spark))
    val yard = new Yardstick(w.yardstick)
    val refMs = w.yardstick.refMs

    // ---- offline phase: untimed warm-up set-ups, dropped before the heap
    // baseline; then the timed set-ups, all kept alive until the live heap
    // is read; the system serves from the last one. Each timed set-up is
    // bracketed by yardstick runs, whose mean gives its scale.
    val warmups = if (args.trace) 0 else w.warmSetups
    val warmTimes = (0 until warmups).map(_ => phase("engine.setup.warm")(w.build(spark, ds))._2)
    val (octo, setupTimes, setupScales, setupHeapMb) = {
      val setups = if (args.trace) 1 else w.setups
      val heapBefore = liveHeapBytes()
      val built = (0 until setups).map { _ =>
        val before = yard.medianMs(setupYardRuns)
        val (sys, secs) = phase("engine.setup")(w.build(spark, ds))
        val after = yard.medianMs(setupYardRuns)
        (sys, secs, refMs / ((before + after) / 2))
      }
      val heapAfter = liveHeapBytes()
      (built.last._1, built.map(_._2), built.map(_._3), (heapAfter - heapBefore).toDouble / setups / 1048576.0)
    }

    def attempt(op: w.Op): (w.Answer, Double) = {
      attempted += 1
      val t0 = System.nanoTime()
      val ans =
        try Some(w.call(octo, op))
        catch { case e: Exception => Console.err.println(s"op $op threw $e"); None }
      val ms = (System.nanoTime() - t0) / 1e6
      ans match {
        case Some(a) =>
          if (!w.check(octo, op, a)) { failed += 1; Console.err.println(s"op $op failed its check") }
          (a, ms)
        case None => failed += 1; (null.asInstanceOf[w.Answer], ms)
      }
    }

    // ---- warm-up: whole blocks from a stream of their own for at least
    // `warmupSeconds`, so the timed ops run on JIT-compiled code.
    val warmRnd = new SplittableRandom(args.seed ^ 0x77A5L)
    val warm0 = System.nanoTime()
    var warmBlocks = 0
    while (warmBlocks == 0 || System.nanoTime() - warm0 < warmupSeconds * 1e9) {
      w.block(octo, warmRnd, warmBlocks).foreach(attempt)
      warmBlocks += 1
    }

    // ---- timed closed loop: whole blocks until both the time and the
    // op minimum are reached. Answers are checked as they arrive; the
    // check is outside the latency but inside the op's share of the loop
    // time. Between ops, at most every `yardEveryMs`, the yardstick runs
    // once; its runs are outside every op's time.
    val rnd = new SplittableRandom(args.seed)
    val ops = mutable.ArrayBuffer.empty[w.Op]
    val answers = mutable.ArrayBuffer.empty[w.Answer]
    val latencies = mutable.ArrayBuffer.empty[Double]
    val opMs = mutable.ArrayBuffer.empty[Double] // call + check
    val yardMs = mutable.ArrayBuffer.empty[Double]
    val opYard = mutable.ArrayBuffer.empty[Int] // yardstick runs made before the op
    var lastYard = 0L
    val (gcCount0, gcMs0) = gcTotals()
    val (steal0, jiffies0) = cpuJiffies()
    val loop0 = System.nanoTime()
    def elapsed = (System.nanoTime() - loop0) / 1e9
    var blocks = 0
    while (elapsed < args.seconds || ops.length < w.minOps) {
      w.block(octo, rnd, blocks).foreach { op =>
        if (System.nanoTime() - lastYard > yardEveryMs * 1e6) { yardMs += yard.ms(); lastYard = System.nanoTime() }
        opYard += yardMs.length
        val t0 = System.nanoTime()
        val (a, ms) = attempt(op)
        opMs += (System.nanoTime() - t0) / 1e6
        ops += op; answers += a; latencies += ms
      }
      blocks += 1
    }
    val wallS = elapsed
    val (gcCount1, gcMs1) = gcTotals()
    val (steal1, jiffies1) = cpuJiffies()
    // Each op's scale: reference ÷ median of the yardstick runs around it.
    val scales = opYard.map(j => refMs / Yardstick.windowMedian(yardMs.toIndexedSeq, j - yardWindow, j + yardWindow))
    val scaled = latencies.indices.map(i => latencies(i) * scales(i))
    Files.writeString(resultPath(args, "latencies.tsv"), ops.indices
      .map(i => s"$i\t${latencies(i)}\t${opMs(i)}\t${opYard(i)}\t${scales(i)}\t${ops(i)}")
      .mkString("op\tms\tcall_check_ms\tyard_runs_before\tscale\tinput\n", "\n", "\n"))
    Files.writeString(resultPath(args, "yardstick.tsv"), yardMs.mkString("ms\n", "\n", "\n"))

    // ---- answer quality on a fixed prefix of the op stream
    val eval0 = System.nanoTime()
    val eval = new SpreadEval(octo.model.graph, w.evalWorlds)
    val spreads = (0 until w.minOps).collect {
      case i if answers(i) != null => w.answerSpread(octo, eval, ops(i), answers(i), 0x5EED0000L + i)
    }
    val answerSpread = if (spreads.isEmpty) 0.0 else spreads.sum / spreads.length
    val evalS = (System.nanoTime() - eval0) / 1e9

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    traced match {
      case None =>
        metrics("latency_p50_ms") = (median(scaled), "ms")
        metrics("latency_p90_ms") = (quantile(scaled, 0.9), "ms")
        metrics("throughput_ops_s") = (ops.length / (opMs.indices.map(i => opMs(i) * scales(i)).sum / 1e3), "ops/s")
        metrics("setup_s") = (median(setupTimes.indices.map(i => setupTimes(i) * setupScales(i))), "s")
        metrics("setup_heap_mb") = (setupHeapMb, "MB")
        metrics("answer_spread") = (answerSpread, "users")
      case Some(t) =>
        // ---- traced replay of the same fixed prefix, then the offline
        // phases under their job groups.
        val prefix = (0 until w.minOps).filter(answers(_) != null)
        prefix.foreach { i =>
          t.trace.op = i
          attempted += 1
          t.expect(w.replay(octo, ops(i), answers(i), t))
        }
        t.trace.op = -1
        w.tracedOffline(spark, ds, octo, prefix.map(ops), t)
        attempted += t.checks
        failed += t.failedChecks
        val root = s"engine.${w.name}"
        val n = prefix.length.toDouble
        val perOp = Seq(
          "topic.gamma_ms" -> "topic.gamma", "data.mix_ms" -> "data.mix",
          "core.bounds.local_ms" -> "core.bounds.local", "core.celf.ms" -> "core.celf",
          "core.topic_sample.query_ms" -> "core.topic_sample.query", "core.suggest.pool_ms" -> "core.suggest.pool",
          "core.rrindex.stage1_ms" -> "core.rrindex.stage1", "core.rrindex.stage2_ms" -> "core.rrindex.stage2",
          "core.mia.ms" -> "core.mia",
        )
        perOp.foreach { case (metric, span) => t.set(metric, t.trace.totalMs(span) / n) }
        t.set("engine.self_ms", t.trace.selfMs(root) / n)
        Seq("core.bounds.saturated_users", "core.bounds.gap", "core.celf.evals_per_user")
          .foreach(c => t.counters.get(c).foreach(v => t.set(c, v / n)))
        t.set("data.gen_s", genS)
        t.set("jvm.gc_ms", (gcMs1 - gcMs0).toDouble)
        t.set("jvm.gc_count", (gcCount1 - gcCount0).toDouble)
        t.set("trace.overhead_frac", median(t.trace.durationsMs(root)) / median(prefix.map(latencies)))
        t.set("trace.replay_mismatches", t.mismatches.toDouble)
        Metrics.perLayer.foreach { case (name, unit) => metrics(name) = (t.counters.getOrElse(name, 0.0), unit) }
        t.trace.write(resultPath(args, "spans.tsv"))
    }

    val body = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${Json.num(v)}, "unit": "$u"}""" }
    val result = s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}"""
    val stamp = Seq(
      "workload" -> Json.str(w.name), "seed" -> args.seed.toString, "trace" -> args.trace.toString,
      "seconds" -> Json.num(args.seconds), "timed_ops" -> ops.length.toString,
      "warmup_blocks" -> warmBlocks.toString, "eval_s" -> Json.num(evalS),
      "yardstick_ms" -> Json.num(median(yardMs.toSeq)), "yardstick_runs" -> yardMs.length.toString,
      "unscaled_p50_ms" -> Json.num(median(latencies.toSeq)),
      "unscaled_p90_ms" -> Json.num(quantile(latencies.toSeq, 0.9)),
      "unscaled_throughput_ops_s" -> Json.num(ops.length / wallS),
      "cpu_steal_frac" -> Json.num((steal1 - steal0).toDouble / math.max(1L, jiffies1 - jiffies0)),
      "warm_setup_runs_s" -> warmTimes.map(Json.num).mkString("[", ", ", "]"),
      "setup_runs_s" -> setupTimes.map(Json.num).mkString("[", ", ", "]"),
      "setup_scales" -> setupScales.map(Json.num).mkString("[", ", ", "]"),
      "nproc" -> nproc.toString, "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "spark_master" -> Json.str(spark.sparkContext.master),
      "default_parallelism" -> spark.sparkContext.defaultParallelism.toString,
      "spark_version" -> Json.str(spark.version),
      "jdk" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "build" -> args.stamp,
    ).map { case (k, v) => s""""$k": $v""" }.mkString("{", ", ", "}")
    val phases = traced.fold("{}")(_.phases.recorded.map { case (g, (secs, st)) =>
      s"""${Json.str(g)}: {"wall_s": ${Json.num(secs)}, "jobs": ${st.jobs}, "stages": ${st.stages}, """ +
        s""""task_s": ${Json.num(st.taskSeconds)}, "shuffle_read_bytes": ${st.shuffleReadBytes}, """ +
        s""""shuffle_write_bytes": ${st.shuffleWriteBytes}, "result_bytes": ${st.resultBytes}}"""
    }.mkString("{", ", ", "}"))
    Files.writeString(resultPath(args, "result.json"),
      s"""{"stamp": $stamp, "phases": $phases, "result": $result}\n""")
    println(s"stamp: $stamp")
    println(result)
  }

  private def resultPath(a: Args, suffix: String): Path = {
    val dir = a.out.toAbsolutePath.resolve("results")
    Files.createDirectories(dir)
    dir.resolve(s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}.$suffix")
  }
}

object Json {
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** Full-precision number; a NaN or infinity stops the run. */
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a number")
    v.toString
  }
}

/** Every per-layer metric the traced run reports, with its unit, in the
  * order of BENCHMARK.json. A metric of a layer the workload does not
  * touch reads 0.
  */
object Metrics {
  val perLayer: Seq[(String, String)] = Seq(
    "topic.gamma_ms" -> "ms", "topic.unknown_keywords" -> "count",
    "data.mix_ms" -> "ms", "data.edges_mixed" -> "count", "data.gen_s" -> "s",
    "core.bounds.local_ms" -> "ms", "core.bounds.saturated_users" -> "users", "core.bounds.gap" -> "ratio",
    "core.bounds.precomp_ms" -> "ms",
    "core.celf.ms" -> "ms", "core.celf.spread_evals" -> "count", "core.celf.evals_per_user" -> "ratio",
    "core.topic_sample.build_s" -> "s", "core.topic_sample.query_ms" -> "ms", "core.topic_sample.hit_frac" -> "ratio",
    "core.topic_sample.spread_evals" -> "count",
    "core.suggest.pool_ms" -> "ms", "core.suggest.candidate_sets" -> "count", "core.suggest.stage2_sets" -> "count",
    "core.suggest.zero_estimates" -> "count",
    "core.rrindex.stage1_ms" -> "ms", "core.rrindex.stage2_ms" -> "ms", "core.rrindex.membership_tests" -> "count",
    "core.rrindex.stage1_hits" -> "count",
    "core.rrindex.build_s" -> "s", "core.rrindex.build_task_s" -> "s", "core.rrindex.build_result_mb" -> "MB",
    "core.rrindex.stored_edges" -> "count", "core.rrindex.truncated" -> "count",
    "core.mia.ms" -> "ms", "core.mia.tree_nodes" -> "count",
    "topic.em_s" -> "s", "topic.em_jobs" -> "count", "topic.em_stages" -> "count", "topic.em_task_s" -> "s",
    "topic.em_shuffle_mb" -> "MB", "topic.em_result_mb" -> "MB", "topic.em_loglik_final" -> "nats",
    "engine.self_ms" -> "ms", "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count",
    "trace.overhead_frac" -> "ratio", "trace.replay_mismatches" -> "count",
  )
}
