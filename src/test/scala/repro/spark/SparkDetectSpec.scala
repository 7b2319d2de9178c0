package repro.spark

import repro.{Oracle, SparkSpec}
import repro.baselines._
import repro.eval.{Scoring, Tables}
import repro.synth.Datasets
import repro.synth.TimeSeriesGen.Sin

class SparkDetectSpec extends SparkSpec {

  private lazy val series = Datasets.multiPeriod(8, Sin, 0.1, 0.01, seed = 1234) ++
    Datasets.singlePeriodSin(8, 0.1, 0.01, seed = 4321)

  private lazy val detectors: Seq[Detector] = Seq(SiegelDetector, Tables.robust)

  private lazy val det = {
    val ds = SparkDetect.toDataset(spark, series)
    SparkDetect.detect(ds, detectors).cache()
  }

  test("distributed detection equals local detection per series") {
    val rows = det.collect()
    assert(rows.length == series.size * detectors.size)
    val bySeries = series.map(s => (s.id, s.cond) -> s).toMap
    rows.foreach { r =>
      val s = bySeries((r.id, r.cond))
      val local = detectors.find(_.name == r.algo).get.detect(s.values)
      assert(r.detected.toSeq == local, s"series ${r.id} algo ${r.algo}")
    }
  }

  test("detection rows carry positive wall-clock timings") {
    assert(det.collect().forall(_.millis > 0))
  }

  test("score rows match local Scoring on every series") {
    val scores = SparkDetect.score(det, Seq(0.0, 0.02)).collect()
    assert(scores.length == series.size * detectors.size * 2)
    val bySeries = series.map(s => (s.id, s.cond) -> s).toMap
    scores.foreach { r =>
      val s = bySeries((r.id, r.cond))
      val local = detectors.find(_.name == r.algo).get.detect(s.values)
      val c = Scoring.score(local, s.truth.toIndexedSeq, r.tol)
      assert((r.tp, r.fp, r.fn) == ((c.tp, c.fp, c.fn)), s"series ${r.id} ${r.algo} tol ${r.tol}")
    }
  }

  test("EvalSql metrics equal DuckDB on the identical SQL (oracle)") {
    import spark.implicits._
    val scores = SparkDetect.score(det, Seq(0.0, 0.02))
    val metricsDf = EvalSql.metrics(scores)
    Oracle.assertEquivalent(metricsDf, EvalSql.MetricsSql, "scores" -> scores.toDF())
  }

  test("EvalSql runtime aggregation equals DuckDB (oracle), timings projected out") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    // Round-trip-safe: replace wall-clock with a deterministic value so the
    // oracle compares exact aggregates.
    val fixed = det.map(r => r.copy(millis = (r.id % 7 + 1).toDouble))
    fixed.createOrReplaceTempView("detections")
    val agg = spark.sql(EvalSql.RuntimeSql)
    Oracle.assertEquivalent(agg, EvalSql.RuntimeSql,
      "detections" -> fixed.toDF().select($"cond", $"algo", $"millis"))
  }

  test("per-condition F1 from SQL matches hand aggregation") {
    val scores = SparkDetect.score(det, Seq(0.02)).collect()
    val sql = EvalSql.metrics(SparkDetect.score(det, Seq(0.02))).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getDouble(5)).toMap
    val conds = series.map(_.cond).distinct
    for (cond <- conds; d <- detectors) {
      val cs = scores.filter(r => r.cond == cond && r.algo == d.name)
        .map(r => Scoring.Counts(r.tp, r.fp, r.fn))
      val expected = Scoring.aggregate(cs.toIndexedSeq).f1
      assert(math.abs(sql((cond, d.name)) - expected) < 1e-9, s"$cond/${d.name}")
    }
  }
}

class SeriesAssemblySpec extends SparkSpec {

  test("long → wide assembly reconstructs the original values in order") {
    import spark.implicits._
    val series = Datasets.singlePeriodSin(4, 0.1, 0.01, seed = 77, n = 200)
    val wide = SparkDetect.toDataset(spark, series)
    val long = SeriesAssembly.toLong(wide)
    // Shuffle row order to prove sort-on-assembly works.
    val shuffled = long.orderBy($"value")
    val truth = series.map(s => s.id -> s.truth).toMap
    val back = SeriesAssembly.fromLong(shuffled, truth).collect().sortBy(_.id)
    val orig = series.sortBy(_.id)
    back.zip(orig).foreach { case (b, o) =>
      assert(b.values.sameElements(o.values), s"series ${o.id} mismatch")
      assert(b.truth.sameElements(o.truth))
    }
  }

  test("assembly row count via SQL matches DuckDB (oracle)") {
    import spark.implicits._
    val series = Datasets.singlePeriodSin(3, 0.1, 0.01, seed = 88, n = 50)
    val long = SeriesAssembly.toLong(SparkDetect.toDataset(spark, series)).cache()
    long.createOrReplaceTempView("longpts")
    val sql = "SELECT id, COUNT(*) AS npts, MIN(CAST(t AS BIGINT)) AS tmin, MAX(CAST(t AS BIGINT)) AS tmax FROM longpts GROUP BY id ORDER BY id"
    val agg = spark.sql(sql)
    Oracle.assertEquivalent(agg, sql, "longpts" -> long.select($"id", $"t"))
  }

  test("detection after assembly equals detection on original arrays") {
    val series = Datasets.singlePeriodSin(3, 0.1, 0.01, seed = 99)
    val long = SeriesAssembly.toLong(SparkDetect.toDataset(spark, series))
    val truth = series.map(s => s.id -> s.truth).toMap
    val assembled = SeriesAssembly.fromLong(long, truth)
    val det = SparkDetect.detect(assembled, Seq(Tables.robust)).collect().sortBy(_.id)
    val direct = series.sortBy(_.id).map(s => Tables.robust.detect(s.values))
    det.zip(direct).foreach { case (d, e) => assert(d.detected.toSeq == e) }
  }
}
