package octobench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SpreadEstimator
import repro.data.CompactGraph

/** The benchmark's evaluator against exact spreads by 2^E world
  * enumeration on graphs small enough to enumerate.
  */
class SpreadEvalSpec extends AnyFunSuite {

  // 6 nodes, 9 edges, two topics; a cycle, a diamond and a dead end.
  private val g = CompactGraph.fromEdgeSeq(6, 2, Seq(
    (0, 1, Array(0.5, 0.1)), (0, 2, Array(0.2, 0.7)), (1, 3, Array(0.6, 0.3)),
    (2, 3, Array(0.4, 0.4)), (3, 4, Array(0.9, 0.2)), (4, 0, Array(0.3, 0.3)),
    (4, 5, Array(0.1, 0.8)), (2, 5, Array(0.5, 0.5)), (5, 2, Array(0.25, 0.6)),
  ))
  private val worlds = 200000
  private val gamma = Array(0.3, 0.7)

  /** Four standard errors of a mean of `worlds` reach counts in [0, n]. */
  private val tol = 4 * g.n / 2.0 / math.sqrt(worlds)

  test("mixing matches Σ_z γ_z · pp^z_e") {
    val probs = new SpreadEval(g, 1).mixed(gamma)
    assert(probs.indices.forall(e => math.abs(probs(e) - g.mixedProb(e, gamma)) < 1e-15))
  }

  test("forward spread matches exact enumeration") {
    val eval = new SpreadEval(g, worlds)
    val probs = eval.mixed(gamma)
    for (seeds <- Seq(Seq(0), Seq(2), Seq(1, 5), Seq(0, 1, 2, 3, 4, 5))) {
      val exact = SpreadEstimator.exactSpread(g, probs, seeds)
      val mc = eval.forward(probs, seeds, rngSeed = 7L)
      assert(math.abs(mc - exact) < tol, s"seeds $seeds: mc $mc exact $exact")
    }
  }

  test("backward spread matches the exact expected number of nodes reaching the root") {
    val eval = new SpreadEval(g, worlds)
    val probs = eval.mixed(gamma)
    for (root <- 0 until g.n) {
      // Σ_v P(v reaches root) = Σ_v P(root ∈ reach(v)), enumerated via
      // exact spreads of single seeds on the graph with only `root` counted.
      val exact = (0 until g.n).map(v => exactReaches(probs, v, root)).sum
      val mc = eval.backward(probs, root, rngSeed = 11L)
      assert(math.abs(mc - exact) < tol, s"root $root: mc $mc exact $exact")
    }
  }

  test("walks restricted to allowed nodes match enumeration on the induced subgraph") {
    val allowed = Set(0, 1, 3, 4)
    val sub = CompactGraph.fromEdgeSeq(6, 2, (0 until g.n).flatMap { u =>
      (g.outOffsets(u) until g.outOffsets(u + 1)).collect {
        case e if allowed(u) && allowed(g.outDst(e)) => (u, g.outDst(e), Array(g.topicProb(e, 0), g.topicProb(e, 1)))
      }
    })
    val eval = new SpreadEval(g, worlds)
    val exact = SpreadEstimator.exactSpread(sub, new SpreadEval(sub, 1).mixed(gamma), Seq(0))
    val mc = eval.forward(eval.mixed(gamma), Seq(0), rngSeed = 3L, allowed)
    assert(math.abs(mc - exact) < tol, s"mc $mc exact $exact")
  }

  test("estimates are deterministic in the seed") {
    val eval = new SpreadEval(g, 1000)
    val probs = eval.mixed(gamma)
    assert(eval.forward(probs, Seq(0), 5L) == eval.forward(probs, Seq(0), 5L))
  }

  /** P(`root` is reached from `v`), by 2^E enumeration. */
  private def exactReaches(probs: Array[Double], v: Int, root: Int): Double = {
    if (v == root) return 1.0
    val m = g.numEdges
    var total = 0.0
    for (mask <- 0L until (1L << m)) {
      var w = 1.0
      for (e <- 0 until m) w *= (if (((mask >> e) & 1L) == 1L) probs(e) else 1.0 - probs(e))
      val seen = Array.fill(g.n)(false)
      val stack = scala.collection.mutable.Stack(v)
      seen(v) = true
      while (stack.nonEmpty) {
        val u = stack.pop()
        for (e <- g.outOffsets(u) until g.outOffsets(u + 1) if ((mask >> e) & 1L) == 1L && !seen(g.outDst(e))) {
          seen(g.outDst(e)) = true; stack.push(g.outDst(e))
        }
      }
      if (seen(root)) total += w
    }
    total
  }
}
