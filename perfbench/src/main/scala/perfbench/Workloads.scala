package perfbench

import org.apache.spark.sql.SparkSession
import repro.Oracle
import repro.core._
import repro.graph.GraphSpace
import repro.lake.{DataLake, GraphLake, TabularLake}

/** What one set-up leaves for the search passes. */
final case class Setup(
    newSpace: () => StateSpace,
    universal: Option[UniversalTable],
    /** Set-up time split: lake.generate_s, universal.build_s, task.calibrate_s. */
    times: Map[String, Double],
    /** Correctness checks, run once per run and outside timing. */
    verify: () => Unit,
) {
  def seconds: Double = times.values.sum
}

/** One benchmark workload: a lake generator, the task's search config and
  * the measure its winners are judged by (`Runner.primaryMeasure`; pc5 for
  * the graph task).
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    cfg: ModisConfig,
    primary: String,
    /** Lakes per run, each with its own set-up; set-up time is their median. */
    lakes: Int,
    setup: (SparkSession, Long) => Setup,
)

object Workloads {

  /** T2 house lake parameters, as `DataLake.house` sets them; only the
    * seed is replaced.
    */
  private val houseParams = DataLake.Params("house", 1178, nInformative = 10, nNoise = 12,
    segK = (5, 4), noisySegs = Set(0, 1), classification = true, seed = 202)

  // house: 1,178 rows at SF 0.1, so each valuation is dominated by the Spark
  // filter/select/collect and row preparation, not by the RF fit. N is cut
  // from the paper's 150 to 15 (bootstrap 20 -> 5) so that warm-up and
  // several timed passes over three lakes fit in one run.
  // graph: no Spark and no tree learner; LightGCN fits, engine and surrogate
  // overhead make up the pass, and BiMODis' correlation pruning fires. The
  // Table 5 config is kept. A graph lake is cheap to set up, so a run covers
  // 12 of them, which evens out how search work varies from lake to lake.
  val all: Vector[Workload] = Vector(
    Workload("house-search", 202, ModisConfig(n = 15, eps = 0.1, maxl = 6, bootstrap = 5),
      "f1", lakes = 3, (spark, seed) => tabular(spark, houseParams.copy(seed = seed), sf = 0.1)),
    Workload("graph-search", 505, ModisConfig(n = 60, eps = 0.1, maxl = 5, bootstrap = 15),
      "pc5", lakes = 12, (_, seed) => graph(sf = 0.1, seed)),
  )

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Lake generation, `Universal.build` and task calibration, as
    * `Runner.tabularComparison` does them.
    */
  def tabular(spark: SparkSession, p: DataLake.Params, sf: Double): Setup = {
    val (lake, genS) = timed(DataLake.generic(spark, p, sf))
    val (u, buildS) = timed(Universal.build(lake))
    val (task, calS) = timed(TabularTask.forLake(lake)
      .calibrated(u.materialize(State.full(u.layout.width))))
    Setup(
      newSpace = () => new TabularSpace(u, task),
      universal = Some(u),
      times = Map("lake.generate_s" -> genS, "universal.build_s" -> buildS,
        "task.calibrate_s" -> calS),
      verify = () => verifyUniversal(lake, u))
  }

  /** `GraphLake.generate` plus the full-graph evaluation `Runner.graphComparison`
    * reports as "Original".
    */
  def graph(sf: Double, seed: Long): Setup = {
    val (lake, genS) = timed(GraphLake.generate(sf, seed))
    val (full, calS) = timed {
      val probe = new GraphSpace(lake)
      probe.evaluate(probe.full)
    }
    require(full.isDefined, s"full graph unusable for seed $seed")
    Setup(
      newSpace = () => new GraphSpace(lake),
      universal = None,
      times = Map("lake.generate_s" -> genS, "universal.build_s" -> 0.0,
        "task.calibrate_s" -> calS),
      verify = () => ())
  }

  /** D_U keeps every base row exactly once, and its full-state
    * materialization equals the same left outer join computed by DuckDB.
    */
  private def verifyUniversal(lake: TabularLake, u: UniversalTable): Unit = {
    val baseRows = lake.base.df.count()
    val duRows = u.segCounts.values.sum
    require(duRows == baseRows, s"D_U has $duRows rows, base table ${lake.base.name} has $baseRows")

    val tables = lake.base +: lake.aux
    val owner = tables.flatMap(t => t.df.columns.filter(_ != lake.key).map(_ -> t.name))
      .distinctBy(_._1).toMap
    val base = lake.base.name
    val select = s"CAST($base.${lake.key} AS BIGINT) AS ${lake.key}" +:
      (lake.target +: u.layout.attrs).map(c => s"CAST(${owner(c)}.$c AS DOUBLE) AS $c")
    val joins = lake.aux.map(t => s" LEFT JOIN ${t.name} ON ${t.name}.${lake.key} = $base.${lake.key}")
    Oracle.assertEquivalent(u.materialize(State.full(u.layout.width)),
      s"SELECT ${select.mkString(", ")} FROM $base${joins.mkString}",
      tables.map(t => t.name -> t.df): _*)
  }
}
