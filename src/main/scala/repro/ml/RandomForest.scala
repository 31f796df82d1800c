package repro.ml

import java.util.stream.IntStream
import scala.util.Random

/** Bagged CART forest — the "RFhouse" model of Task T2 and the case-study
  * classifier. Classification averages per-tree 0/1 regressions into a
  * probability; regression averages leaf means.
  *
  * Trees are grown concurrently on the ForkJoin common pool. Tree `t` draws
  * its bootstrap sample and per-node features from its own RNG, seeded by
  * the `t`-th draw of `new Random(seed)`, so the forest is a pure function of
  * (data, seed) whatever the scheduling.
  */
final class RandomForest(
    val nTrees: Int = 30,
    val maxDepth: Int = 6,
    val minLeaf: Int = 3,
    val seed: Long = 13,
    val classification: Boolean = true,
) {
  private var trees: Array[RegressionTree] = Array.empty

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "RandomForest: empty input")
    if (classification)
      require(y.forall(v => v == 0.0 || v == 1.0), "RandomForest: labels must be 0/1")
    val seedRng = new Random(seed)
    val seeds = Array.fill(nTrees)(seedRng.nextLong())
    val nFeat = x(0).length
    val mtry = math.max(1, math.round(math.sqrt(nFeat.toDouble)).toInt)
    val grown = new Array[RegressionTree](nTrees)
    IntStream.range(0, nTrees).parallel().forEach { t =>
      val rng = new Random(seeds(t))
      val sample = Array.fill(x.length)(rng.nextInt(x.length)) // bootstrap
      grown(t) = new RegressionTree(maxDepth, minLeaf, featuresPerSplit = mtry).fit(x, y, rng, sample)
    }
    trees = grown
    this
  }

  /** Mean tree output: probability for classification, value for regression. */
  def predictScore(xi: Array[Double]): Double =
    trees.foldLeft(0.0)((s, t) => s + t.predict(xi)) / trees.length

  def predict(xi: Array[Double]): Double =
    if (classification) { if (predictScore(xi) >= 0.5) 1.0 else 0.0 } else predictScore(xi)

  def predictScoreAll(x: Array[Array[Double]]): Array[Double] = x.map(predictScore)
  def predictAll(x: Array[Array[Double]]): Array[Double] = x.map(predict)

  def importances: Array[Double] = {
    require(trees.nonEmpty, "forest not fitted")
    RegressionTree.normalizedImportances(trees, trees.head.importances.length)
  }
}
