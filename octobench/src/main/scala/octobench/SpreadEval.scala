package octobench

import java.util.SplittableRandom

import repro.data.CompactGraph

/** The benchmark's own Monte-Carlo spread evaluator behind `answer_spread`.
  *
  * It mixes the per-topic edge probabilities itself and flips its own
  * coins from a `SplittableRandom`, never from the program's
  * `WorldSampler` or `SpreadEstimator`, so a change that trades answer
  * quality for speed, or edits the program's estimator, cannot move the
  * measure with it. Each edge is flipped at most once per world, when
  * the walk first reaches its tail, which samples the independent-cascade
  * live-edge world exactly.
  *
  * @param worlds number of sampled worlds per estimate
  */
final class SpreadEval(g: CompactGraph, worlds: Int) {
  private val visited = new Array[Int](g.n) // world stamp, so no clearing between worlds
  private val stack = new Array[Int](g.n)
  private var stamp = 0

  /** `p_e = Σ_z γ_z · pp^z_e` for every edge. */
  def mixed(gamma: Array[Double]): Array[Double] =
    Array.tabulate(g.numEdges) { e =>
      var acc = 0.0
      var z = 0
      while (z < g.numTopics) { acc += gamma(z) * g.topicProb(e, z); z += 1 }
      acc
    }

  /** Expected number of nodes reached from `seeds` along live out-edges,
    * walking only nodes with `allowed(v)`. Deterministic in `rngSeed`.
    */
  def forward(probs: Array[Double], seeds: Seq[Int], rngSeed: Long, allowed: Int => Boolean = _ => true): Double =
    walk(probs, seeds, rngSeed, allowed, outward = true)

  /** Expected number of nodes with a live path to `root` (reverse walk),
    * counting only nodes with `allowed(v)`. Deterministic in `rngSeed`.
    */
  def backward(probs: Array[Double], root: Int, rngSeed: Long, allowed: Int => Boolean = _ => true): Double =
    walk(probs, Seq(root), rngSeed, allowed, outward = false)

  private def walk(
      probs: Array[Double],
      seeds: Seq[Int],
      rngSeed: Long,
      allowed: Int => Boolean,
      outward: Boolean,
  ): Double = {
    val rnd = new SplittableRandom(rngSeed)
    var total = 0L
    var w = 0
    while (w < worlds) {
      stamp += 1
      var top = 0
      seeds.foreach { s => if (visited(s) != stamp) { visited(s) = stamp; stack(top) = s; top += 1 } }
      total += top
      while (top > 0) {
        top -= 1
        val u = stack(top)
        var i = if (outward) g.outOffsets(u) else g.inOffsets(u)
        val end = if (outward) g.outOffsets(u + 1) else g.inOffsets(u + 1)
        while (i < end) {
          val v = if (outward) g.outDst(i) else g.inSrc(i)
          val e = if (outward) i else g.inEdgeId(i)
          if (visited(v) != stamp && allowed(v) && rnd.nextDouble() < probs(e)) {
            visited(v) = stamp; stack(top) = v; top += 1; total += 1
          }
          i += 1
        }
      }
      w += 1
    }
    total.toDouble / worlds
  }
}
