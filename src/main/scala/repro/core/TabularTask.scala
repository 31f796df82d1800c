package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.lake.TabularLake
import repro.ml._
import repro.util.Stats

/** The model family a task trains (Section 6, "Tasks and Models"). */
sealed trait ModelKind
object ModelKind {
  case object RF extends ModelKind       // T2 "RFhouse"
  case object GBM extends ModelKind      // T1 "GBmovie", T4 "LGCmental" stand-in
  case object Ridge extends ModelKind    // T3 "LRavocado" (regression)
}

/** Evaluates a materialized dataset for one tabular task: trains the task's
  * fixed deterministic model on an 80/20 key-hash split, and produces both
  * the raw metrics the paper's tables report and the normalized minimized
  * performance vector the search optimizes.
  *
  * Normalization (Section 2): bounded metrics (accuracy-like) become
  * 1 − value; unbounded costs (time, MSE, MAE) are scaled by 2× their value
  * on the calibration dataset (the universal table); quality scores to be
  * maximized (Fisher, MI) become 1/(1+value). Everything is clipped into
  * (1e-3, 1].
  */
final class TabularTask(
    val lake: TabularLake,
    val modelKind: ModelKind,
    /** normalized measure names driving the search, e.g. Vector("acc","train","fsc","mi") */
    val measureNames: Vector[String],
    /** calibration denominators for "train" / "mse" / "mae" (raw units) */
    val calibration: Map[String, Double] = Map.empty,
) {
  import TabularTask._

  def measures: Vector[Measure] = measureNames.map(Measure(_))

  /** Re-create this task with denominators taken from the given dataset
    * (evaluate once, keep raw "train"/"mse"/"mae").
    */
  def calibrated(df: DataFrame): TabularTask = {
    val r = evaluate(df).getOrElse(
      throw new IllegalStateException(s"calibration dataset for ${lake.name} unusable"))
    new TabularTask(lake, modelKind, measureNames,
      Map("train" -> r.raw("train"), "mse" -> r.raw.getOrElse("mse", 1.0),
          "mae" -> r.raw.getOrElse("mae", 1.0)))
  }

  /** Evaluate a materialized dataset: collect it into the arrays the
    * overload below evaluates.
    */
  def evaluate(df: DataFrame): Option[EvalResult] = {
    val featCols = df.columns.filterNot(c => c == lake.key || c == lake.target).toVector
    // Sort by key so training-row order (and thus every model fit) is
    // independent of Spark partitioning — evaluation must be a pure
    // function of the dataset.
    val rows = df.select((lake.key +: lake.target +: featCols).map(col): _*)
      .collect().sortBy(_.getLong(0))
    val x = rows.map(r => Array.tabulate(featCols.length)(j => Frame.toDouble(r.get(j + 2))))
    evaluate(rows.map(_.getLong(0)), Frame(featCols, x, rows.map(r => Frame.toDouble(r.get(1)))))
  }

  /** Evaluate a dataset given as rows sorted by key (`ids`) with their
    * features and target (`data`, NaN = missing); None when it is too small
    * to train or (classification) misses a class in the train split.
    */
  def evaluate(ids: Array[Long], data: Frame): Option[EvalResult] = {
    val featCols = data.names
    if (featCols.isEmpty || data.nRows < MinRows) return None
    val n = data.nRows
    val x = data.x
    val y = data.y
    val testMask = ids.map(_ % 5 == 0)
    val trIdx = (0 until n).filterNot(testMask(_)).toArray
    val teIdx = (0 until n).filter(testMask(_)).toArray
    if (trIdx.length < MinRows / 2 || teIdx.length < 10) return None
    if (lake.classification) {
      val trLabels = trIdx.map(y).toSet
      if (trLabels.size < 2) return None
    }

    // mean-impute using train-split statistics
    val trFrame = Frame(featCols, trIdx.map(x), trIdx.map(y))
    val fill = trFrame.columnMeans
    val xtr = trFrame.imputed(fill).x
    val ytr = trIdx.map(y)
    val xte = Frame(featCols, teIdx.map(x), teIdx.map(y)).imputed(fill).x
    val yte = teIdx.map(y)

    val t0 = System.nanoTime()
    val scoreFn: Array[Double] => Double = modelKind match {
      case ModelKind.RF =>
        val m = new RandomForest(nTrees = 30, maxDepth = 8, minLeaf = 3,
          classification = lake.classification).fit(xtr, ytr)
        m.predictScore _
      case ModelKind.GBM =>
        if (lake.classification) {
          val m = new GBMClassifier(nTrees = 30, maxDepth = 4).fit(xtr, ytr); m.predictProba _
        } else { val m = new GBMRegressor(nTrees = 30, maxDepth = 4).fit(xtr, ytr); m.predict _ }
      case ModelKind.Ridge =>
        val m = new RidgeRegression().fit(xtr, ytr); m.predict _
    }
    val trainSec = (System.nanoTime() - t0) / 1e9

    val scores = xte.map(scoreFn)
    val raw = collection.mutable.Map[String, Double]("train" -> trainSec)
    if (lake.classification) {
      val pred = scores.map(s => if (s >= 0.5) 1.0 else 0.0)
      raw += "acc" -> Metrics.accuracy(yte, pred)
      raw += "prec" -> Metrics.precision(yte, pred)
      raw += "rec" -> Metrics.recall(yte, pred)
      raw += "f1" -> Metrics.f1(yte, pred)
      raw += "auc" -> Metrics.auc(yte, scores)
    } else {
      raw += "mse" -> Metrics.mse(yte, scores)
      raw += "mae" -> Metrics.mae(yte, scores)
      raw += "rmse" -> Metrics.rmse(yte, scores)
      raw += "r2" -> Metrics.r2(yte, scores)
      raw += "acc" -> Metrics.regressionAccuracy(yte, scores)
    }
    val allX = data.imputed(fill).x
    val yBin = if (lake.classification) y else Metrics.binarizeAtMedian(y)
    raw += "fsc" -> Metrics.fisherScore(allX, yBin)
    raw += "mi" -> Metrics.mutualInformation(allX, yBin)

    val norm = measureNames.map(m => normalize(m, raw.toMap)).toArray
    Some(EvalResult(raw.toMap, norm, rows = n, cols = featCols.length))
  }

  /** Normalized, minimized value of one measure given the raw metric map. */
  def normalize(name: String, raw: Map[String, Double]): Double = {
    val v = name match {
      case "acc" | "f1" | "auc" | "prec" | "rec" => 1.0 - raw(name)
      case "fsc" | "mi"                          => 1.0 / (1.0 + raw(name))
      case "train" | "mse" | "mae" =>
        raw(name) / (2.0 * math.max(1e-9, calibration.getOrElse(name, raw(name))))
      case other => throw new IllegalArgumentException(s"unknown measure $other")
    }
    Stats.clip(v, 1e-3, 1.0)
  }
}

object TabularTask {
  val MinRows = 40

  /** The paper's task → (model, measure set) assignment (Tables 3–6). */
  def forLake(lake: TabularLake): TabularTask = lake.name match {
    case "movie"   => new TabularTask(lake, ModelKind.GBM, Vector("acc", "fsc", "mi", "train"))
    case "house"   => new TabularTask(lake, ModelKind.RF, Vector("f1", "acc", "fsc", "mi", "train"))
    case "avocado" => new TabularTask(lake, ModelKind.Ridge, Vector("mae", "mse", "train"))
    case "mental"  => new TabularTask(lake, ModelKind.GBM, Vector("acc", "f1", "auc", "train"))
    case other     => throw new IllegalArgumentException(s"unknown lake $other")
  }
}
