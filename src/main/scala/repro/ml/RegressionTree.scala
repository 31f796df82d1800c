package repro.ml

import scala.util.Random

/** CART regression tree with variance-reduction splits — the shared weak
  * learner behind the GBM, random-forest, and MO-GBM substrates (S8 in
  * DESIGN.md). Deterministic given the caller-provided RNG.
  */
final class RegressionTree(
    val maxDepth: Int = 4,
    val minLeaf: Int = 5,
    /** Number of candidate features per split; <=0 means all. */
    val featuresPerSplit: Int = 0,
) {

  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  private var rootOpt: Option[Node] = None
  private var importanceAcc: Array[Double] = Array.empty

  def root: Node = rootOpt.getOrElse(throw new IllegalStateException("tree not fitted"))

  /** Per-feature total variance reduction accumulated over splits. */
  def importances: Array[Double] = importanceAcc.clone()

  def fit(x: Array[Array[Double]], y: Array[Double], rng: Random = new Random(0),
          sample: Array[Int] = null): this.type = {
    require(x.length == y.length && x.nonEmpty, "tree: empty or mismatched input")
    val idx = if (sample == null) Array.range(0, x.length) else sample
    importanceAcc = new Array[Double](x(0).length)
    rootOpt = Some(grow(x, y, idx, 0, rng))
    this
  }

  def predict(xi: Array[Double]): Double = {
    var n = root
    while (true) {
      n match {
        case Leaf(v)                  => return v
        case Split(f, t, l, r)        => n = if (xi(f) <= t) l else r
      }
    }
    0.0 // unreachable
  }

  def predictAll(x: Array[Array[Double]]): Array[Double] = x.map(predict)

  private def grow(x: Array[Array[Double]], y: Array[Double], idx: Array[Int],
                   depth: Int, rng: Random): Node = {
    val n = idx.length
    var sum = 0.0
    var i = 0
    while (i < n) { sum += y(idx(i)); i += 1 }
    val meanHere = sum / n
    if (depth >= maxDepth || n < 2 * minLeaf) return Leaf(meanHere)

    var sse = 0.0
    i = 0
    while (i < n) { val d = y(idx(i)) - meanHere; sse += d * d; i += 1 }
    if (sse <= 1e-12) return Leaf(meanHere)

    val nFeat = x(0).length
    val cand: Array[Int] =
      if (featuresPerSplit <= 0 || featuresPerSplit >= nFeat) Array.range(0, nFeat)
      else rng.shuffle((0 until nFeat).toList).take(featuresPerSplit).toArray

    var bestGain = 0.0
    var bestFeat = -1
    var bestThr = 0.0
    for (f <- cand) {
      val sorted = RegressionTree.sortIdxBy(idx, j => x(j)(f))
      // prefix sums of y over the sorted order
      var leftSum = 0.0
      var k = 0
      while (k < n - 1) {
        val j = sorted(k)
        leftSum += y(j)
        val vHere = x(j)(f)
        val vNext = x(sorted(k + 1))(f)
        if (vHere != vNext && k + 1 >= minLeaf && n - k - 1 >= minLeaf) {
          val nl = k + 1; val nr = n - nl
          val rightSum = sum - leftSum
          // variance-reduction gain: SSE decrease from splitting at this point
          val gain = leftSum * leftSum / nl + rightSum * rightSum / nr - sum * sum / n
          if (gain > bestGain + 1e-12) {
            bestGain = gain; bestFeat = f; bestThr = (vHere + vNext) / 2.0
          }
        }
        k += 1
      }
    }
    if (bestFeat < 0) return Leaf(meanHere)
    importanceAcc(bestFeat) += bestGain
    // primitive partition (idx.partition boxes on the hot path)
    var nl = 0
    i = 0
    while (i < n) { if (x(idx(i))(bestFeat) <= bestThr) nl += 1; i += 1 }
    val li = new Array[Int](nl); val ri = new Array[Int](n - nl)
    var pl = 0; var pr = 0
    i = 0
    while (i < n) {
      val j = idx(i)
      if (x(j)(bestFeat) <= bestThr) { li(pl) = j; pl += 1 } else { ri(pr) = j; pr += 1 }
      i += 1
    }
    Split(bestFeat, bestThr, grow(x, y, li, depth + 1, rng), grow(x, y, ri, depth + 1, rng))
  }
}

object RegressionTree {

  /** Per-feature importance summed over an ensemble's trees, normalized to
    * sum to 1 (left as is when all zero).
    */
  private[ml] def normalizedImportances(trees: Iterable[RegressionTree], nFeatures: Int): Array[Double] = {
    val acc = new Array[Double](nFeatures)
    trees.foreach { t =>
      val im = t.importances
      var j = 0
      while (j < acc.length) { acc(j) += im(j); j += 1 }
    }
    val s = acc.sum
    if (s <= 0) acc else acc.map(_ / s)
  }

  /** Allocation-free-ish index sort: pack (sortable float bits, index) into
    * longs and primitive-sort. Float rounding only perturbs ordering among
    * near-equal keys, which cannot invalidate a split.
    */
  private[ml] def sortIdxBy(idx: Array[Int], keyOf: Int => Double): Array[Int] = {
    val packed = new Array[Long](idx.length)
    var i = 0
    while (i < idx.length) {
      val bitsRaw = java.lang.Float.floatToIntBits(keyOf(idx(i)).toFloat)
      // signed-order key: flipping a negative float's magnitude bits makes
      // Arrays.sort's signed comparison match float order across both signs
      val bits = if (bitsRaw < 0) bitsRaw ^ 0x7fffffff else bitsRaw
      packed(i) = (bits.toLong << 32) | (idx(i).toLong & 0xffffffffL)
      i += 1
    }
    java.util.Arrays.sort(packed)
    val out = new Array[Int](idx.length)
    i = 0
    while (i < idx.length) { out(i) = packed(i).toInt; i += 1 }
    out
  }
}
