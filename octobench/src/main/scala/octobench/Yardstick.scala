package octobench

import java.util.SplittableRandom

/** A fixed reference computation that tells how fast the host runs right
  * now, so that timings taken in a slow phase of a shared host can be
  * put on one scale with timings taken in a fast phase.
  *
  * The work is the kind the services do: independent-cascade walks with
  * coin flips over a random graph. The graph, its probabilities, the seeds
  * and the coins all come from fixed seeds of the benchmark's own, and
  * nothing here calls the program, so a change to the program cannot
  * change the yardstick. How much a slow phase slows code depends on how
  * much memory the code walks, so each workload picks the size whose graph
  * is about as large as the data its service walks.
  *
  * A timing `t` taken while the yardstick takes `y` ms is reported as
  * `t · size.refMs / y`: what it would have been on a host where one run
  * takes `size.refMs`.
  */
final class Yardstick(size: Yardstick.Size) {
  import Yardstick._

  import size.{n, worlds}

  private val offsets = Array.tabulate(n + 1)(_ * degree)
  private val (dst, prob) = {
    val rnd = new SplittableRandom(0x9A2D5L)
    (Array.fill(n * degree)(rnd.nextInt(n)), Array.fill(n * degree)(rnd.nextDouble() * 0.2))
  }
  private val seeds = Array.tabulate(numSeeds)(i => (i * 97) % n)
  private val visited = new Array[Int](n)
  private val stack = new Array[Int](n)
  private var stamp = 0

  /** Nodes reached over all worlds of one run; the same on every run. */
  val reach: Long = walk()
  (0 until warmRuns).foreach(_ => require(walk() == reach, "yardstick is not deterministic"))

  /** Ms one run takes now. */
  def ms(): Double = {
    val t0 = System.nanoTime()
    val r = walk()
    val t = (System.nanoTime() - t0) / 1e6
    require(r == reach, "yardstick is not deterministic")
    t
  }

  /** Median ms of `runs` runs. */
  def medianMs(runs: Int): Double = median(Seq.fill(runs)(ms()))

  private def walk(): Long = {
    val rnd = new SplittableRandom(0x5EEDL)
    var total = 0L
    var w = 0
    while (w < worlds) {
      stamp += 1
      var top = 0
      var s = 0
      while (s < seeds.length) {
        val v = seeds(s)
        if (visited(v) != stamp) { visited(v) = stamp; stack(top) = v; top += 1 }
        s += 1
      }
      total += top
      while (top > 0) {
        top -= 1
        val u = stack(top)
        var i = offsets(u)
        val end = offsets(u + 1)
        while (i < end) {
          val v = dst(i)
          if (visited(v) != stamp && rnd.nextDouble() < prob(i)) {
            visited(v) = stamp; stack(top) = v; top += 1; total += 1
          }
          i += 1
        }
      }
      w += 1
    }
    total
  }
}

object Yardstick {
  private val degree = 8
  private val numSeeds = 20
  private val warmRuns = 100

  /** A yardstick graph of `n` nodes and 8 out-edges per node, walked
    * `worlds` times per run; `refMs` is the ms of one run on the reference
    * host, a 4-vCPU cloud VM with JDK 17, in a fast phase.
    */
  final case class Size(n: Int, worlds: Int, refMs: Double)

  /** About 200 KB of edges: stays in the core's own cache. */
  val small: Size = Size(1 << 11, 300, 1.1)

  /** About 12 MB of edges: mostly outside the core's own cache. */
  val large: Size = Size(1 << 17, 200, 3.0)

  /** Median of `xs(from until until)`, clipped to the array. */
  def windowMedian(xs: IndexedSeq[Double], from: Int, until: Int): Double =
    median(xs.slice(math.max(0, from), math.min(xs.length, until)))

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
