package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.lake.TabularLake
import repro.ml.Frame
import repro.util.KMeans1D

/** D_U collected once to the driver, rows sorted by key. Every exact
  * valuation gathers its dataset from these arrays, so the search's control
  * loop runs no Spark job (the paper's loop is likewise one driver over an
  * in-memory table).
  */
final class ColumnarView(
    val keys: Array[Long],
    val target: Array[Double],
    /** one column per attribute, in `layout.attrs` order; null → NaN */
    val attrs: Array[Array[Double]],
    /** per segment attribute (in `layout.segAttrs` order), each row's cluster
      * id as read from its hidden `__cl_<attr>` column
      */
    val clusterIds: Array[Array[Int]],
) {
  def nRows: Int = keys.length
}

/** The universal table D_U (Section 5.1 "Reduce-from-Universal"): the
  * multi-way join of all sources over the shared key, with per-segment-
  * attribute active-domain clustering (1-D k-means, Section 6) materialized
  * as hidden `__cl_<attr>` columns so reduct literals become cheap cluster
  * filters.
  */
final case class UniversalTable(
    df: DataFrame,
    key: String,
    target: String,
    layout: BitLayout,
    clusterings: Map[String, KMeans1D.Clustering],
    /** row counts per (cluster-id per segment attr, in layout.segAttrs order) —
      * the cluster sizes `BackSt` starts from.
      */
    segCounts: Map[Vector[Int], Long],
    view: ColumnarView,
) {
  def hiddenCol(segAttr: String): String = s"__cl_$segAttr"

  /** Materialize a state's dataset: key + target + kept attributes, rows
    * restricted to unmasked segment clusters. Hidden columns are dropped.
    * The relational reference for [[gather]].
    */
  def materialize(s: State): DataFrame = {
    val attrs = layout.attrsOf(s)
    val cols = (key +: target +: attrs).map(col)
    df.filter(rowPredicate(s)).select(cols: _*)
  }

  /** Row predicate of a state over D_U (cluster membership per segment). */
  def rowPredicate(s: State): Column =
    layout.segAttrs.foldLeft(lit(true)) { (acc, seg) =>
      val allowed = layout.clustersOf(s, seg)
      val total = clusterings(seg).k
      if (allowed.size == total) acc
      else if (allowed.isEmpty) acc && lit(false)
      else acc && col(hiddenCol(seg)).isin(allowed.toSeq: _*)
    }

  /** [[rowPredicate]] over the view: whether each row of [[view]] is kept. */
  def rowMask(s: State): Array[Boolean] = {
    val allowed = layout.segAttrs.map { seg =>
      val ok = new Array[Boolean](clusterings(seg).k)
      layout.clustersOf(s, seg).foreach(ok(_) = true)
      ok
    }.toArray
    Array.tabulate(view.nRows) { i =>
      var j = 0
      while (j < allowed.length && allowed(j)(view.clusterIds(j)(i))) j += 1
      j == allowed.length
    }
  }

  /** Exact row count of a state's dataset. */
  def rowCount(s: State): Long = rowMask(s).count(identity).toLong

  /** A state's dataset from the view: the keys, and a frame of the kept
    * attributes (layout order) labelled by the target. Equals
    * `materialize(s)` collected and sorted by key.
    */
  def gather(s: State): (Array[Long], Frame) = {
    val mask = rowMask(s)
    val rows = mask.indices.filter(mask).toArray
    val cols = layout.attrs.indices.filter(s(_)).map(view.attrs).toArray
    val x = rows.map(i => cols.map(_(i)))
    (rows.map(view.keys), Frame(layout.attrsOf(s), x, rows.map(view.target)))
  }
}

object Universal {

  /** Build D_U for a tabular lake: left-outer join every aux table onto the
    * base over the key (preserving every labelled row — the supervised
    * variant of the paper's outer-join universal table), then cluster each
    * segment attribute's active domain into at most `maxK` literals.
    */
  def build(lake: TabularLake, maxK: Int = 6): UniversalTable = {
    var df = lake.base.df
    for (t <- lake.aux) df = df.join(t.df, Seq(lake.key), "left_outer")

    val segAttrs = lake.segmentAttrs.toVector
    val clusterings = segAttrs.map { a =>
      val values = df.select(col(a)).na.drop().collect().map(_.getDouble(0))
      a -> KMeans1D.fit(values, maxK)
    }.toMap

    // hidden cluster-id columns via boundary CASE chains (pure Catalyst)
    for (a <- segAttrs) {
      val cl = clusterings(a)
      val expr = cl.boundaries.zipWithIndex.foldRight(lit(cl.k - 1): Column) {
        case ((b, i), acc) => when(col(a) <= b, i).otherwise(acc)
      }
      df = df.withColumn(s"__cl_$a", expr.cast("int"))
    }
    val cached = df.cache()

    val attrs = (lake.base.df.columns ++ lake.aux.flatMap(_.df.columns))
      .distinct.filterNot(c => c == lake.key || c == lake.target).toVector
    val clusterBits = segAttrs.flatMap(a => (0 until clusterings(a).k).map(c => (a, c)))
    val layout = BitLayout(attrs, clusterBits)

    // The one collect of D_U; it also fills the cache. The Row array is
    // dropped once the columns are built.
    val rows = cached
      .select((lake.key +: lake.target +: attrs ++: segAttrs.map(a => s"__cl_$a")).map(col): _*)
      .collect().sortBy(_.getLong(0))
    val firstCl = attrs.size + 2
    val view = new ColumnarView(
      keys = rows.map(_.getLong(0)),
      target = rows.map(r => Frame.toDouble(r.get(1))),
      attrs = Array.tabulate(attrs.size)(j => rows.map(r => Frame.toDouble(r.get(j + 2)))),
      clusterIds = Array.tabulate(segAttrs.size)(j => rows.map(_.getInt(firstCl + j))))

    val segCounts = (0 until view.nRows)
      .groupMapReduce(i => view.clusterIds.map(_(i)).toVector)(_ => 1L)(_ + _)

    UniversalTable(cached, lake.key, lake.target, layout, clusterings, segCounts, view)
  }
}
