package repro.core

import repro.SparkSpec
import repro.lake.{DataLake, TabularLake}
import scala.util.Random

class TabularSpaceSpec extends SparkSpec {

  private lazy val lake = DataLake.movie(spark, sf = 0.01)
  private lazy val uni = Universal.build(lake)
  private lazy val task = TabularTask.forLake(lake)
    .calibrated(uni.materialize(State.full(uni.layout.width)))
  private lazy val space = new TabularSpace(uni, task)

  test("full state is admissible") {
    assert(space.admissible(space.full))
  }

  test("a state without attributes is inadmissible") {
    var s = space.full
    space.layout.attrs.foreach(a => s = s.clear(space.layout.attrIdx(a)))
    assert(!space.admissible(s))
  }

  test("a state with an empty segment is inadmissible") {
    val seg = space.layout.segAttrs.head
    var s = space.full
    (0 until uni.clusterings(seg).k).foreach(c => s = s.clear(space.layout.clusterIdx(seg, c)))
    assert(!space.admissible(s))
  }

  test("neighborsReduct flips exactly one bit down") {
    val kids = space.neighborsReduct(space.full)
    assert(kids.nonEmpty)
    kids.foreach(k => assert(k.popCount == space.full.popCount - 1))
  }

  test("neighborsAugment flips exactly one bit up") {
    val sb = space.backStart
    val kids = space.neighborsAugment(sb)
    assert(kids.nonEmpty)
    kids.foreach(k => assert(k.popCount == sb.popCount + 1))
  }

  test("neighborsReduct of full covers all admissible single flips") {
    val kids = space.neighborsReduct(space.full).toSet
    // flipping any single attr bit (with >1 attrs) is admissible
    assert(kids.size >= space.layout.attrs.size)
  }

  test("backStart keeps only base attributes") {
    val baseCols = lake.base.df.columns.toSet
    val sb = space.backStart
    assert(space.layout.attrsOf(sb).forall(baseCols.contains))
  }

  test("backStart evaluates successfully (class coverage)") {
    assert(space.evaluate(space.backStart).isDefined)
  }

  test("rowCountEstimate equals materialized count on sample states") {
    val seg = space.layout.segAttrs.head
    val states = Seq(
      space.full,
      space.full.clear(space.layout.clusterIdx(seg, 0)),
      space.backStart)
    states.foreach { s =>
      assert(space.rowCountEstimate(s) == uni.materialize(s).count(), s"state $s")
    }
  }

  test("features vector has bitmap + 2 fractions") {
    val f = space.features(space.full)
    assert(f.length == space.layout.width + 2)
    assert(f.last == 1.0) // all columns kept
    assert(f(space.layout.width) == 1.0) // all rows kept
  }

  test("evaluate is memoized (same instance back)") {
    val a = space.evaluate(space.full)
    val b = space.evaluate(space.full)
    assert(a eq b)
  }

  test("evaluate on full state yields usable metrics") {
    val r = space.evaluate(space.full).get
    assert(r.rows == uni.df.count())
    assert(r.norm.length == task.measureNames.length)
  }

  test("measures come from the task") {
    assert(space.measures.map(_.name) == task.measureNames)
  }

  /** The full state, every segment attribute's cluster k−1 (the one a null
    * segment value falls into) masked, and random admissible reducts.
    */
  private def sampleStates(space: TabularSpace, n: Int): Seq[State] = {
    val u = space.universal
    val nullClusters = u.layout.segAttrs.foldLeft(space.full) { (s, seg) =>
      s.clear(u.layout.clusterIdx(seg, u.clusterings(seg).k - 1))
    }
    val rng = new Random(11)
    val reducts = Seq.fill(n) {
      (1 to 1 + rng.nextInt(6)).foldLeft(space.full) { (s, _) =>
        val kids = space.neighborsReduct(s)
        if (kids.isEmpty) s else kids(rng.nextInt(kids.size))
      }
    }
    space.full +: nullClusters +: reducts
  }

  private def bits(v: Double) = java.lang.Double.doubleToLongBits(v)

  for ((name, mk) <- Seq[(String, () => TabularLake)](
         "movie" -> (() => DataLake.movie(spark, sf = 0.01)),
         "house" -> (() => DataLake.house(spark, sf = 0.01)))) {
    lazy val lake = mk()
    lazy val u = Universal.build(lake)
    lazy val task = TabularTask.forLake(lake).calibrated(u.materialize(State.full(u.layout.width)))
    lazy val space = new TabularSpace(u, task)
    lazy val states = sampleStates(space, 8)

    test(s"$name: gather equals materialize collected and sorted by key") {
      var nulls = 0
      for (s <- states) {
        val df = u.materialize(s)
        val rows = df.collect().sortBy(_.getLong(0))
        val (ids, data) = u.gather(s)
        assert(df.columns.toSeq == (u.key +: u.target +: data.names), s"$s")
        assert(ids.toSeq == rows.map(_.getLong(0)).toSeq, s"$s")
        assert(u.rowCount(s) == rows.length, s"$s")
        assert(data.y.map(bits).toSeq == rows.map(r => bits(r.getDouble(1))).toSeq, s"$s")
        for ((r, i) <- rows.zipWithIndex; j <- data.names.indices) {
          val expected = if (r.isNullAt(j + 2)) { nulls += 1; Double.NaN } else r.getDouble(j + 2)
          assert(bits(data.x(i)(j)) == bits(expected), s"$s row ${ids(i)} ${data.names(j)}")
        }
      }
      assert(nulls > 0, "no null cell was compared")
    }

    test(s"$name: TabularSpace.evaluate equals evaluating the materialized dataset") {
      // "train" is wall-clock fit time, the one measure that differs by run
      val trainIdx = task.measureNames.indexOf("train")
      var usable = 0
      for (s <- states) {
        val got = space.evaluate(s)
        val want = task.evaluate(u.materialize(s))
        assert(got.isDefined == want.isDefined, s"$s")
        for (g <- got; w <- want) {
          usable += 1
          assert(g.rows == w.rows && g.cols == w.cols, s"$s")
          assert((g.raw - "train").view.mapValues(bits).toMap ==
            (w.raw - "train").view.mapValues(bits).toMap, s"$s")
          assert(g.norm.indices.filter(_ != trainIdx).map(i => bits(g.norm(i))) ==
            w.norm.indices.filter(_ != trainIdx).map(i => bits(w.norm(i))), s"$s")
        }
      }
      assert(usable > 0, "no usable state was compared")
    }
  }
}
