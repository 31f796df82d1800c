package repro.ml

import java.util.concurrent.{Callable, ForkJoinPool}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RandomForestSpec extends AnyFunSuite {

  private def classData(n: Int, seed: Int): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) - xi(1) > 0) 1.0 else 0.0)
    (x, y)
  }

  test("classifies a linear boundary") {
    val (x, y) = classData(500, 1)
    val m = new RandomForest(nTrees = 20).fit(x, y)
    assert(Metrics.accuracy(y, m.predictAll(x)) > 0.9)
  }

  test("probability scores are in [0,1]") {
    val (x, y) = classData(200, 2)
    val m = new RandomForest(nTrees = 15).fit(x, y)
    assert(m.predictScoreAll(x).forall(s => s >= 0.0 && s <= 1.0))
  }

  test("regression mode fits a continuous target") {
    val rng = new Random(3)
    val x = Array.fill(400)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => 3 * xi(0) + rng.nextGaussian() * 0.1)
    val m = new RandomForest(nTrees = 25, classification = false).fit(x, y)
    assert(Metrics.r2(y, m.predictAll(x)) > 0.7)
  }

  test("classification rejects non-binary labels") {
    intercept[IllegalArgumentException](
      new RandomForest().fit(Array(Array(1.0)), Array(0.3)))
  }

  test("deterministic for a fixed seed") {
    val (x, y) = classData(300, 4)
    val a = new RandomForest(nTrees = 10, seed = 2).fit(x, y).predictScoreAll(x).toSeq
    val b = new RandomForest(nTrees = 10, seed = 2).fit(x, y).predictScoreAll(x).toSeq
    assert(a == b)
  }

  test("different seeds give different forests") {
    val (x, y) = classData(300, 5)
    val a = new RandomForest(nTrees = 10, seed = 2).fit(x, y).predictScoreAll(x).toSeq
    val b = new RandomForest(nTrees = 10, seed = 3).fit(x, y).predictScoreAll(x).toSeq
    assert(a != b)
  }

  test("the forest does not depend on how its trees are scheduled") {
    val (x, y) = classData(300, 9)
    def fitted() = new RandomForest(nTrees = 12, seed = 4).fit(x, y)
    val onOneThread: Callable[RandomForest] = () => fitted()
    val pool = new ForkJoinPool(1)
    val single = try pool.submit(onOneThread).get() finally pool.shutdown()
    val common = fitted()
    assert(single.predictScoreAll(x).toSeq == common.predictScoreAll(x).toSeq)
    assert(single.importances.toSeq == common.importances.toSeq)
  }

  test("importances highlight the informative features") {
    val (x, y) = classData(600, 6)
    val m = new RandomForest(nTrees = 30).fit(x, y)
    val im = m.importances
    assert(im(0) + im(1) > im(2))
  }

  test("AUC on held-out data beats random") {
    val (xtr, ytr) = classData(400, 7)
    val (xte, yte) = classData(200, 8)
    val m = new RandomForest(nTrees = 25).fit(xtr, ytr)
    assert(Metrics.auc(yte, m.predictScoreAll(xte)) > 0.85)
  }
}
