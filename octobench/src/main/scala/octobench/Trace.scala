package octobench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** In-memory span recorder for the traced run. A span is one call into a
  * layer of the program, made from the benchmark: name, start and end
  * (ns), the enclosing span and the op it belongs to. Nothing is written
  * until [[write]] is called at the end of the run.
  */
final class Trace {
  private val names = mutable.ArrayBuffer.empty[String]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val opIds = mutable.ArrayBuffer.empty[Int]
  private var current = -1

  /** Op id stamped on the spans recorded from now on (-1: offline phase). */
  var op: Int = -1

  def span[A](name: String)(body: => A): A = {
    val id = names.length
    names += name; starts += System.nanoTime(); ends += 0L; parents += current; opIds += op
    val saved = current
    current = id
    try body
    finally {
      ends(id) = System.nanoTime()
      current = saved
    }
  }

  private def millis(i: Int): Double = (ends(i) - starts(i)) / 1e6

  /** Total ms of the spans called `name`, over all ops. */
  def totalMs(name: String): Double =
    names.indices.iterator.filter(names(_) == name).map(millis).sum

  /** Per-op durations (ms) of the spans called `name`, in op order. */
  def durationsMs(name: String): Seq[Double] =
    names.indices.filter(names(_) == name).map(millis)

  /** Total ms of the spans called `name` minus the time their direct
    * children cover (self time).
    */
  def selfMs(name: String): Double = {
    val childMs = new Array[Double](names.length)
    names.indices.foreach(i => if (parents(i) >= 0) childMs(parents(i)) += millis(i))
    names.indices.iterator.filter(names(_) == name).map(i => millis(i) - childMs(i)).sum
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try {
      out.println("id\tname\top\tparent\tstart_ns\tend_ns")
      names.indices.foreach { i =>
        out.println(s"$i\t${names(i)}\t${opIds(i)}\t${parents(i)}\t${starts(i)}\t${ends(i)}")
      }
    } finally out.close()
  }
}

/** Stage metrics of the Spark jobs run under one job group. */
final case class PhaseStats(
    jobs: Int,
    stages: Int,
    taskSeconds: Double,
    shuffleReadBytes: Long,
    shuffleWriteBytes: Long,
    resultBytes: Long,
)

/** Sums task time, shuffle bytes and bytes returned to the Spark driver
  * per job group. Register it once; run each offline phase through
  * [[phase]].
  */
final class PhaseListener(sc: SparkContext) extends SparkListener {
  private val groupOfStage = mutable.HashMap.empty[Int, String]
  private val jobsEnded = mutable.HashSet.empty[Int]
  private val acc = mutable.HashMap.empty[String, Array[Long]] // jobs, stages, taskMs, shR, shW, result

  /** Wall seconds and stage metrics of every phase run, in order. */
  val recorded: mutable.LinkedHashMap[String, (Double, PhaseStats)] = mutable.LinkedHashMap.empty

  sc.addSparkListener(this)

  private def slot(group: String): Array[Long] = acc.getOrElseUpdate(group, new Array[Long](6))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.foreach { g =>
      slot(g)(0) += 1
      e.stageIds.foreach(s => groupOfStage(s) = g)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsEnded += e.jobId }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    groupOfStage.get(e.stageInfo.stageId).foreach(g => slot(g)(1) += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- groupOfStage.get(e.stageId); m <- Option(e.taskMetrics)) {
      val a = slot(g)
      a(2) += m.executorRunTime
      a(3) += m.shuffleReadMetrics.totalBytesRead
      a(4) += m.shuffleWriteMetrics.bytesWritten
      a(5) += m.resultSize
    }
  }

  /** Run `body` under job group `group`; return its result, its wall
    * seconds and the stage metrics of the jobs it ran (waiting until the
    * listener has seen every one of them end).
    */
  def phase[A](group: String)(body: => A): (A, Double, PhaseStats) = {
    val (result, seconds) = Phases.grouped(sc, group)(body)
    val ids = sc.statusTracker.getJobIdsForGroup(group)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (synchronized(!ids.forall(jobsEnded.contains)) && System.nanoTime() < deadline) Thread.sleep(5)
    val a = synchronized(slot(group).clone())
    val stats = PhaseStats(a(0).toInt, a(1).toInt, a(2) / 1000.0, a(3), a(4), a(5))
    recorded(group) = (seconds, stats)
    (result, seconds, stats)
  }
}

object Phases {

  /** Run `body` with Spark job group `group` set; return it with its wall
    * seconds. Used for offline phases in both the timed and traced runs.
    */
  def grouped[A](sc: SparkContext, group: String)(body: => A): (A, Double) = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    val t0 = System.nanoTime()
    try (body, (System.nanoTime() - t0) / 1e9)
    finally sc.clearJobGroup()
  }
}
