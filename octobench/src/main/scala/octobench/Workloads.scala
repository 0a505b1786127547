package octobench

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.data.{CompactGraph, SocialDataGen, SocialDataset}
import repro.engine.Octopus
import repro.topic.{TopicEM, TopicModel}

import scala.collection.mutable

/** What the traced run hands a workload: the span recorder, the counters
  * it adds to, and the Spark listener for offline phases.
  */
final class Traced(val trace: Trace, val phases: PhaseListener) {
  val counters: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  var mismatches = 0L
  var checks = 0L
  var failedChecks = 0L

  def add(name: String, v: Double): Unit = counters(name) = counters.getOrElse(name, 0.0) + v
  def set(name: String, v: Double): Unit = counters(name) = v

  /** A replayed result that should equal the facade's. */
  def expect(same: Boolean): Unit = if (!same) mismatches += 1

  /** An output check of an offline phase, counted with the op checks. */
  def check(ok: Boolean): Unit = { checks += 1; if (!ok) failedChecks += 1 }
}

/** One benchmark workload: the dataset it runs on, the offline phase it
  * needs, its op stream, the service call, the output check, the
  * answer-quality evaluation and the traced replay of the call from the
  * program's public layer calls.
  */
sealed trait Workload {
  type Op
  type Answer

  def name: String

  /** Untimed set-ups an untraced run makes first and drops, so that the
    * timed ones run on JIT-compiled code and warm Spark planning.
    */
  def warmSetups: Int

  /** Timed set-ups per untraced run; `setup_s` is their median. */
  def setups: Int

  /** The yardstick whose graph is about as large as the data the service
    * walks; timings are scaled by it.
    */
  def yardstick: Yardstick.Size

  /** Fewest timed ops a run makes (whole blocks); answer quality and the
    * traced replay use exactly this prefix of the op stream.
    */
  def minOps: Int

  /** Worlds the spread evaluator samples per answer. */
  def evalWorlds: Int

  /** Input generation, the stand-in for loading a real network. */
  def generate(spark: SparkSession): SocialDataset

  /** The offline phase: `Octopus.build` plus the lazy indexes it uses. */
  def build(spark: SparkSession, ds: SocialDataset): Octopus

  /** Block `index` of the op stream, drawn from `rnd`. Every block holds
    * each op class in the same shares, so runs on different seeds differ
    * only in the inputs drawn within a class.
    */
  def block(sys: Octopus, rnd: SplittableRandom, index: Int): Seq[Op]

  def call(sys: Octopus, op: Op): Answer

  /** The per-op output check. */
  def check(sys: Octopus, op: Op, ans: Answer): Boolean

  /** Mean spread of the answer, by the benchmark's own evaluator. */
  def answerSpread(sys: Octopus, eval: SpreadEval, op: Op, ans: Answer, rngSeed: Long): Double

  /** Re-run `op` as its sequence of layer calls under `t.trace`; return
    * whether the replayed answer equals the facade's `ans` bit for bit.
    */
  def replay(sys: Octopus, op: Op, ans: Answer, t: Traced): Boolean

  /** Offline work measured only in the traced run (after the ops). */
  def tracedOffline(spark: SparkSession, ds: SocialDataset, sys: Octopus, ops: Seq[Op], t: Traced): Unit
}

object Workload {
  val all: Seq[String] = Seq("kim", "suggest", "explore")

  def apply(name: String): Workload = name match {
    case "kim"     => new Kim
    case "suggest" => new Suggest
    case "explore" => new Explore
  }

  /** The benchmark's reference γ: Bayes' rule in log domain over the
    * known keywords, computed from the model parameters without calling
    * `TopicModel.gammaFor`.
    */
  def referenceGamma(m: TopicModel, keywords: Seq[String]): Array[Double] = {
    val known = keywords.flatMap(w => m.vocab.indices.find(m.vocab(_) == w))
    val logs = Array.tabulate(m.numTopics) { z =>
      math.log(m.prior(z)) + known.map(w => math.log(math.max(m.phi(z)(w), 1e-12))).sum
    }
    val top = logs.max
    val exps = logs.map(l => math.exp(l - top))
    exps.map(_ / exps.sum)
  }

  def isSimplex(g: Array[Double]): Boolean =
    g.forall(x => x >= 0.0 && x <= 1.0) && math.abs(g.sum - 1.0) <= 1e-9

  def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => sameBits(a(i), b(i)))

  def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)

  /** A keyword of topic band `band`, drawn by popularity: rank r with
    * weight 1/(r+1), the Zipf shape of the generator's p(w|z).
    */
  def keyword(rnd: SplittableRandom, band: Int, model: TopicModel): String = {
    val size = model.vocab.length / model.numTopics
    var x = rnd.nextDouble() * (1 to size).map(1.0 / _).sum
    var r = 0
    while (r < size - 1 && x >= 1.0 / (r + 1)) { x -= 1.0 / (r + 1); r += 1 }
    SocialDataGen.keywordName(band, r)
  }

  /** Every `k`-subset of the `z` topics. */
  def topicSets(z: Int, k: Int): Seq[Seq[Int]] = (0 until z).combinations(k).toSeq

  def shuffle[A](rnd: SplittableRandom, xs: Seq[A]): Seq[A] = {
    val b = xs.toBuffer
    for (i <- b.indices.reverse) { val j = rnd.nextInt(i + 1); val t = b(i); b(i) = b(j); b(j) = t }
    b.toSeq
  }

  /** Users ranked by out-degree, highest first (ties by id). */
  def byOutDegree(g: CompactGraph): Array[Int] = (0 until g.n).sortBy(u => (-g.outDegree(u), u)).toArray

  def unknownKeywords(m: TopicModel, kws: Seq[String]): Int = kws.count(w => !m.keywordIndex.contains(w))
}

import Workload._

/** A `kim` op: `Octopus.influentialUsers(keywords, k)`. */
final case class Query(keywords: Seq[String], k: Int)

/** A `suggest` op: `Octopus.suggestKeywords(target, k)`. */
final case class Ask(target: Int, k: Int)

/** An `explore` op: the outward and inward MIA trees of `target` at each θ. */
final case class Session(target: Int, keywords: Seq[String])

/** Scenario 1: keyword-based influence maximization. */
final class Kim extends Workload {
  type Op = Query
  type Answer = (Seq[String], GreedyIM.IMResult, Array[Double])

  val cfg: BestEffortKIM.Config = BestEffortKIM.Config()

  def name = "kim"
  // Each set-up is two small Spark queries and takes tens of ms once the
  // planner is warm, so many are timed. Set-up times keep falling over
  // the first few dozen set-ups in a JVM as the JIT compiles Spark's
  // planner, hence as many warm-up set-ups.
  def warmSetups = 30
  def setups = 30
  // CELF walks the query's 7,270-edge graph.
  def yardstick = Yardstick.small
  def minOps = 180
  def evalWorlds = 1000

  def generate(spark: SparkSession): SocialDataset = SynthData.citeLite(spark, sf = 0.02)

  def build(spark: SparkSession, ds: SocialDataset): Octopus = {
    val sys = Octopus.build(spark, ds, kimConfig = cfg)
    sys.precomp
    sys
  }

  /** An even split over the three keyword-set classes, each with
    * k ∈ {1, 5, 10}: z same-band pairs (one per topic), z two-topic pairs
    * and z three-topic triples, the last two drawn without repeats from
    * every pair or triple of the z topics. The set the block index selects
    * also carries a keyword the vocabulary lacks (1 set in 3z, 1 in 12 at
    * z = 4).
    */
  def block(sys: Octopus, rnd: SplittableRandom, index: Int): Seq[Query] = {
    val m = sys.model
    val z = m.numTopics
    def pick(ts: Seq[Int]) = ts.map(keyword(rnd, _, m))
    val sets =
      (0 until z).map(t => pick(Seq(t, t))) ++
        shuffle(rnd, topicSets(z, 2)).take(z).map(pick) ++
        shuffle(rnd, topicSets(z, 3)).take(z).map(pick)
    val u = index % sets.length
    val withUnknown = sets.updated(u, sets(u) :+ s"kw_unknown_${rnd.nextInt(1000)}")
    shuffle(rnd, for (kws <- withUnknown; k <- Seq(1, 5, 10)) yield Query(kws, k))
  }

  def call(sys: Octopus, q: Query): Answer = sys.influentialUsers(q.keywords, q.k)

  def check(sys: Octopus, q: Query, ans: Answer): Boolean = {
    val (names, res, gamma) = ans
    val n = sys.model.graph.n
    res.seeds.length == q.k && res.seeds.distinct.length == q.k &&
    res.seeds.forall(s => s >= 0 && s < n) && names == res.seeds.map(sys.userNames) &&
    isSimplex(gamma)
  }

  def answerSpread(sys: Octopus, eval: SpreadEval, q: Query, ans: Answer, rngSeed: Long): Double =
    eval.forward(eval.mixed(referenceGamma(sys.model, q.keywords)), ans._2.seeds, rngSeed)

  def replay(sys: Octopus, q: Query, ans: Answer, t: Traced): Boolean = {
    val g = sys.model.graph
    val tr = t.trace
    val (gamma, ub, res) = tr.span("engine.kim") {
      val gamma = tr.span("topic.gamma")(sys.model.gammaFor(q.keywords))
      val probs = tr.span("data.mix")(g.mixedProbs(gamma))
      val ub = tr.span("core.bounds.local")(Bounds.localUB(g, probs, sys.precomp, cfg.boundHops))
      val res = tr.span("core.celf") {
        GreedyIM.celf(g, probs, q.k, cfg.numSamples, cfg.seed, initialUpper = Some(ub.map(_ * cfg.slack)))
      }
      (gamma, ub, res)
    }
    t.add("topic.unknown_keywords", unknownKeywords(sys.model, q.keywords))
    t.add("data.edges_mixed", g.numEdges)
    t.add("core.bounds.saturated_users", ub.count(_ >= g.n))
    t.add("core.bounds.gap", res.spread / ub.sorted(Ordering[Double].reverse).take(q.k).sum)
    t.add("core.celf.spread_evals", res.spreadEvals)
    t.add("core.celf.evals_per_user", res.spreadEvals.toDouble / g.n)
    val (_, want, wantGamma) = ans
    res.seeds == want.seeds && sameBits(res.spread, want.spread) &&
    res.spreadEvals == want.spreadEvals && sameBits(gamma, wantGamma)
  }

  def tracedOffline(spark: SparkSession, ds: SocialDataset, sys: Octopus, ops: Seq[Query], t: Traced): Unit = {
    val g = sys.model.graph
    val t0 = System.nanoTime()
    val precomp = Bounds.precomputedUB(g)
    t.set("core.bounds.precomp_ms", (System.nanoTime() - t0) / 1e6)
    t.expect(sameBits(precomp, sys.precomp))

    val (index, buildS, _) = t.phases.phase("core.topic_sample.build")(sys.topicSampleIndex)
    t.set("core.topic_sample.build_s", buildS)
    var hits = 0
    ops.foreach { q =>
      val gamma = sys.model.gammaFor(q.keywords)
      val a = t.trace.span("core.topic_sample.query")(TopicSampleKIM.query(g, index, gamma, q.k, cfg = cfg))
      if (a.fromSample) hits += 1
      t.add("core.topic_sample.spread_evals", a.result.spreadEvals)
    }
    t.set("core.topic_sample.hit_frac", hits.toDouble / ops.length)
  }
}

/** Scenario 2: personalized influential keyword suggestion. */
final class Suggest extends Workload {
  type Op = Ask
  type Answer = KeywordSuggest.SuggestResult

  val rrSamples = 1000
  // KeywordSuggest.suggestWithIndex defaults, which the facade uses.
  val poolSize = 12
  val stage1Frac = 0.2
  val keepTop = 8

  private var top: Array[Int] = _

  def name = "suggest"
  // RRIndex.build keeps getting faster over its first few runs in a JVM.
  def warmSetups = 5
  def setups = 9
  // The stages walk the RR index, about 10 MB of boxed edge lists.
  def yardstick = Yardstick.large
  def minOps = 150
  def evalWorlds = 1000

  def generate(spark: SparkSession): SocialDataset = SynthData.citeLite(spark, sf = 0.05)

  def build(spark: SparkSession, ds: SocialDataset): Octopus = {
    val sys = Octopus.build(spark, ds, rrSamples = rrSamples)
    sys.rrIndex
    sys
  }

  /** Half the targets from the top 1% by out-degree, half uniform. Two
    * thirds of the ops ask for k = 2 keywords and one third for k = 3.
    * This 2:1 split is an assumption, not taken from any query log: a k = 3
    * op scores 220 candidate sets against 66 and costs about three times
    * as much, so at 1:1 the median would sit on the gap between the two
    * cost modes and jump between them from run to run. At 2:1 the median
    * lies inside the k = 2 mode and the p90 inside the k = 3 one.
    */
  def block(sys: Octopus, rnd: SplittableRandom, index: Int): Seq[Ask] = {
    val g = sys.model.graph
    if (top == null) top = byOutDegree(g).take(math.max(1, g.n / 100))
    def hub = top(rnd.nextInt(top.length))
    def anyone = rnd.nextInt(g.n)
    val (h, u) = (hub, anyone)
    shuffle(rnd, Seq(Ask(h, 2), Ask(h, 3), Ask(hub, 2), Ask(u, 2), Ask(u, 3), Ask(anyone, 2)))
  }

  def call(sys: Octopus, a: Ask): Answer = sys.suggestKeywords(a.target, a.k)

  def check(sys: Octopus, a: Ask, r: Answer): Boolean = {
    val vocab = sys.model.keywordIndex
    r.keywords.length == a.k && r.keywords.distinct.length == a.k && r.keywords.forall(vocab.contains) &&
    r.estSpread >= 0.0 && r.estSpread <= sys.model.graph.n && isSimplex(r.gamma)
  }

  def answerSpread(sys: Octopus, eval: SpreadEval, a: Ask, r: Answer, rngSeed: Long): Double =
    eval.forward(eval.mixed(referenceGamma(sys.model, r.keywords)), Seq(a.target), rngSeed)

  def replay(sys: Octopus, a: Ask, want: Answer, t: Traced): Boolean = {
    val m = sys.model
    val g = m.graph
    val index = sys.rrIndex
    val tr = t.trace
    val stage1 = math.max(1, (index.numSamples * stage1Frac).toInt)
    val (winner, screenedCount) = tr.span("engine.suggest") {
      val pool = tr.span("core.suggest.pool")(KeywordSuggest.candidatePool(m, a.target, poolSize))
      val sets = KeywordSuggest.kSubsets(pool, a.k).toVector
      val scored = sets.map { w =>
        val gamma = tr.span("topic.gamma")(m.gammaFor(w))
        val probs = tr.span("data.mix")(g.mixedProbs(gamma))
        (w, gamma, tr.span("core.rrindex.stage1")(index.estimateUserSpread(probs, a.target, restrict = stage1)))
      }
      val screened = scored.sortBy(-_._3).take(keepTop)
      t.add("core.suggest.candidate_sets", sets.length)
      // estimateUserSpread returns n · hits / samples
      t.add("core.rrindex.stage1_hits", scored.map(s => math.round(s._3 * stage1 / g.n)).sum)
      val winner = screened
        .map { case (w, gamma, _) =>
          val probs = tr.span("data.mix")(g.mixedProbs(gamma))
          (w, gamma, tr.span("core.rrindex.stage2")(index.estimateUserSpread(probs, a.target)))
        }
        .maxBy(_._3)
      // Derived, not counted inside RRIndex: the samples the two stages test.
      t.add("core.rrindex.membership_tests", sets.length.toLong * stage1 + screened.length.toLong * index.numSamples)
      t.add("data.edges_mixed", (sets.length + screened.length).toLong * g.numEdges)
      (winner, screened.length)
    }
    t.add("core.suggest.stage2_sets", screenedCount)
    if (winner._3 == 0.0) t.add("core.suggest.zero_estimates", 1)
    winner._1 == want.keywords && sameBits(winner._2, want.gamma) && sameBits(winner._3, want.estSpread) &&
    screenedCount == want.evaluatedSets
  }

  def tracedOffline(spark: SparkSession, ds: SocialDataset, sys: Octopus, ops: Seq[Ask], t: Traced): Unit = {
    val g = sys.model.graph
    val (index, buildS, st) = t.phases.phase("core.rrindex.build")(RRIndex.build(spark, g, rrSamples))
    t.set("core.rrindex.build_s", buildS)
    t.set("core.rrindex.build_task_s", st.taskSeconds)
    t.set("core.rrindex.build_result_mb", st.resultBytes / 1048576.0)
    t.set("core.rrindex.stored_edges", index.samples.map(_.inEdges.valuesIterator.map(_.length).sum.toLong).sum)
    t.set("core.rrindex.truncated", index.samples.count(_.truncated))
    val facade = sys.rrIndex.samples
    t.expect(index.samples.length == facade.length && index.samples.zip(facade).forall { case (a, b) =>
      a.sampleId == b.sampleId && a.root == b.root && a.truncated == b.truncated &&
      a.inEdges.keySet == b.inEdges.keySet && a.inEdges.forall { case (v, es) => es.sameElements(b.inEdges(v)) }
    })
  }
}

/** Scenario 3 on a learned model: θ-slider sessions of MIA trees. */
final class Explore extends Workload {
  type Op = Session
  type Answer = Seq[MIA.MiaTree]

  val numTopics = 4
  // Half the facade's default of 8, to keep a run's EM set-ups within the
  // run budget.
  val emIterations = 4
  val thetas: Seq[Double] = Seq(0.1, 0.01, 0.001)

  def name = "explore"
  // The first EM in a JVM pays Spark's code generation and takes about
  // twice as long as the next; one warm-up EM keeps it out of `setup_s`.
  // The next EMs still get faster as the JIT goes on compiling (the first
  // timed one about 20 % slower than the second), so `setup_s` is their
  // mean.
  def warmSetups = 1
  def setups = 2
  // MIA's Dijkstra walks a 500-node graph.
  def yardstick = Yardstick.small
  def minOps = 400
  def evalWorlds = 200

  def generate(spark: SparkSession): SocialDataset = SynthData.citeLite(spark, sf = 0.01)

  def build(spark: SparkSession, ds: SocialDataset): Octopus =
    Octopus.build(spark, ds, learnEM = true, numTopics = numTopics, emIterations = emIterations)

  /** Uniform targets, one with a same-band keyword pair for each topic and
    * one with each two-topic pair.
    */
  def block(sys: Octopus, rnd: SplittableRandom, index: Int): Seq[Session] = {
    val m = sys.model
    val sets = (0 until m.numTopics).map(t => Seq(t, t)) ++ topicSets(m.numTopics, 2)
    shuffle(rnd, sets.map(ts => Session(rnd.nextInt(m.graph.n), ts.map(keyword(rnd, _, m)))))
  }

  private def directions = for (th <- thetas; out <- Seq(true, false)) yield (th, out)

  def call(sys: Octopus, s: Session): Answer =
    directions.map { case (th, out) => sys.influencePaths(s.target, s.keywords, th, out) }

  def check(sys: Octopus, s: Session, trees: Answer): Boolean =
    trees.length == directions.length && trees.zip(directions).forall { case (tree, (th, out)) =>
      val byNode = tree.nodes.map(x => x.node -> x).toMap
      tree.root == s.target && tree.outward == out && byNode.size == tree.nodes.length &&
      tree.nodes.count(_.parent == -1) == 1 && byNode.get(s.target).exists(r => r.parent == -1 && r.prob == 1.0) &&
      tree.nodes.forall { x =>
        x.prob >= th && x.prob <= 1.0 &&
        (x.parent == -1 || byNode.get(x.parent).exists(p => p.prob >= x.prob && p.depth + 1 == x.depth))
      }
    }

  /** Mean over the session's trees of the expected number of tree nodes
    * the target reaches (outward) or that reach the target (inward),
    * walking only edges between tree nodes.
    */
  def answerSpread(sys: Octopus, eval: SpreadEval, s: Session, trees: Answer, rngSeed: Long): Double = {
    val probs = eval.mixed(referenceGamma(sys.model, s.keywords))
    trees.zipWithIndex.map { case (tree, i) =>
      val inTree = tree.nodes.iterator.map(_.node).toSet
      if (tree.outward) eval.forward(probs, Seq(s.target), rngSeed + i, inTree)
      else eval.backward(probs, s.target, rngSeed + i, inTree)
    }.sum / trees.length
  }

  def replay(sys: Octopus, s: Session, want: Answer, t: Traced): Boolean = {
    val g = sys.model.graph
    val tr = t.trace
    val trees = tr.span("engine.explore") {
      directions.map { case (th, out) =>
        val gamma = tr.span("topic.gamma")(sys.model.gammaFor(s.keywords))
        val probs = tr.span("data.mix")(g.mixedProbs(gamma))
        tr.span("core.mia")(if (out) MIA.mioa(g, probs, s.target, th) else MIA.miia(g, probs, s.target, th))
      }
    }
    t.add("topic.unknown_keywords", directions.length * unknownKeywords(sys.model, s.keywords))
    t.add("data.edges_mixed", directions.length.toLong * g.numEdges)
    t.add("core.mia.tree_nodes", trees.map(_.size).sum)
    trees.zip(want).forall { case (a, b) =>
      a.root == b.root && a.outward == b.outward && a.nodes.length == b.nodes.length &&
      a.nodes.zip(b.nodes).forall { case (x, y) =>
        x.node == y.node && x.parent == y.parent && x.depth == y.depth && sameBits(x.prob, y.prob)
      }
    }
  }

  /** Replays the EM inside `Octopus.build(learnEM = true)` under its job
    * group, checks the log-likelihood never decreases (the tolerance of
    * the program's own EM test) and that it learned the facade's model.
    */
  def tracedOffline(spark: SparkSession, ds: SocialDataset, sys: Octopus, ops: Seq[Session], t: Traced): Unit = {
    val (res, emS, st) = t.phases.phase("topic.em") {
      TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, numTopics, emIterations)
    }
    t.set("topic.em_s", emS)
    t.set("topic.em_jobs", st.jobs)
    t.set("topic.em_stages", st.stages)
    t.set("topic.em_task_s", st.taskSeconds)
    t.set("topic.em_shuffle_mb", (st.shuffleReadBytes + st.shuffleWriteBytes) / 1048576.0)
    t.set("topic.em_result_mb", st.resultBytes / 1048576.0)
    t.set("topic.em_loglik_final", res.logLikelihood.last)
    t.check(res.logLikelihood.sliding(2).forall(p => p(1) >= p(0) - 1e-6))
    val (a, b) = (res.model, sys.model)
    t.expect(sameBits(a.prior, b.prior) && a.phi.indices.forall(z => sameBits(a.phi(z), b.phi(z))) &&
      sameBits(a.graph.outProbs, b.graph.outProbs) && a.graph.outDst.sameElements(b.graph.outDst))
  }
}
