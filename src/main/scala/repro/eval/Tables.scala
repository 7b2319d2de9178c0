package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.baselines._
import repro.forecast.{HarmonicForecaster, Metrics}
import repro.spark._
import repro.synth.Datasets
import repro.synth.Datasets.Series
import repro.synth.TimeSeriesGen.{Sin, Square, Triangle, Waveform}

/** Harness reproducing each evaluation table (Sec. 4). One method per
  * table; bench suites and spark-submit jobs both call in here. Series
  * counts default to 100 per condition (paper: 1000) — see DESIGN.md §4.
  */
object Tables {

  val Tolerances: Seq[Double] = Seq(0.0, 0.02)

  def robust: Detector = new RobustPeriodDetector()

  def singleDetectors: Seq[Detector] = Seq(FindFrequency, SazedMaj, SazedOpt, robust)
  def multiDetectors: Seq[Detector]  = Seq(SiegelDetector, AutoPeriod, WaveletFisher, robust)
  def ablationDetectors: Seq[Detector] =
    Seq(Ablations.HuberFisher, Ablations.HuberSiegelACF, Ablations.NRRobustPeriod, robust)

  /** Shared path: generate → Spark mapPartitions detect → SQL metrics. */
  def run(spark: SparkSession, series: Seq[Series],
          detectors: Seq[Detector]): (Dataset[DetectionRow], DataFrame) = {
    val ds  = SparkDetect.toDataset(spark, series)
    val det = SparkDetect.detect(ds, detectors).cache()
    val met = EvalSql.metrics(SparkDetect.score(det, Tolerances))
    (det, met)
  }

  // Each table's corpus, defined once: the table methods below and
  // `periods` run the same series.

  def table1Series(count: Int = 100): Seq[Series] =
    Datasets.singlePeriodSin(count, sigma2 = 0.1, eta = 0.01) ++
      Datasets.singlePeriodSin(count, sigma2 = 2.0, eta = 0.2, seed = 1100) ++
      Datasets.cranLike()

  def table2Series(count: Int = 100, yahooCount: Int = 40): Seq[Series] =
    Datasets.multiPeriod(count, Sin, 0.1, 0.01) ++
      Datasets.multiPeriod(count, Sin, 1.0, 0.1, seed = 2300) ++
      Datasets.yahooLike(yahooCount, a4 = false) ++
      Datasets.yahooLike(yahooCount, a4 = true)

  def table3Series(count: Int = 100): Seq[Series] =
    Datasets.multiPeriod(count, Square, 0.1, 0.01, seed = 3100) ++
      Datasets.multiPeriod(count, Triangle, 0.1, 0.01, seed = 3200)

  def table4Series: Seq[Series] = Datasets.alibabaLike()

  def table5Series(count: Int = 100): Seq[Series] =
    Datasets.multiPeriod(count, Sin, 2.0, 0.2, seed = 5100)

  /** Table 6 detectors see the first `Table6TrainLen` points of each series. */
  val Table6TrainLen = 840

  def table6Series(count: Int = 40): Seq[Series] =
    Datasets.yahooLike(count, a4 = true, seed = 6100)

  def table7and8Series(count: Int = 50, lengths: Seq[Int] = Seq(500, 1000, 2000)): Seq[Series] =
    lengths.flatMap { n =>
      Datasets.multiPeriod(count, Sin, 0.1, 0.01, seed = 7000 + n, n = n)
    }

  /** Table 1 — single-period "precision" (top-1 accuracy) on synthetic sin
    * (mild & severe) and the CRAN-like corpus.
    */
  def table1(spark: SparkSession, count: Int = 100): DataFrame =
    run(spark, table1Series(count), singleDetectors)._2

  /** Table 2 — multi-period F1 on synthetic sin (mild & moderate) and the
    * Yahoo-A3/A4-like corpora.
    */
  def table2(spark: SparkSession, count: Int = 100, yahooCount: Int = 40): DataFrame =
    run(spark, table2Series(count, yahooCount), multiDetectors)._2

  /** Table 3 — multi-period F1 on square- and triangle-wave synthetics. */
  def table3(spark: SparkSession, count: Int = 100): DataFrame =
    run(spark, table3Series(count), multiDetectors)._2

  /** Table 4 — detected period lists on the six Alibaba-like datasets. */
  def table4(spark: SparkSession): Seq[(String, String, Seq[Int])] = {
    import spark.implicits._
    val (det, _) = run(spark, table4Series, multiDetectors)
    det.collect().toSeq
      .sortBy(r => (r.id, r.algo))
      .map(r => (r.cond, r.algo, r.detected.toSeq))
  }

  /** Table 5 — ablations on synthetic sin, σ²=2, η=0.2. */
  def table5(spark: SparkSession, count: Int = 100): DataFrame =
    run(spark, table5Series(count), ablationDetectors)._2

  /** Table 6 — forecast RMSE/MAE with periods from each detector feeding
    * the harmonic forecaster (TBATS substitute) on Yahoo-A4-like data.
    */
  final case class ForecastRow(algo: String, horizon: Int, rmse: Double, mae: Double)

  def table6(spark: SparkSession, count: Int = 40, trainLen: Int = Table6TrainLen,
             horizons: Seq[Int] = Seq(84, 168)): DataFrame = {
    import spark.implicits._
    val detectors = multiDetectors
    val ds = SparkDetect.toDataset(spark, table6Series(count))
    val rows = ds.mapPartitions { it =>
      it.flatMap { s =>
        val train = s.values.take(trainLen)
        detectors.iterator.flatMap { d =>
          val periods = d.detect(train)
          val model   = HarmonicForecaster.fit(train, periods)
          horizons.iterator.map { h =>
            val pred   = HarmonicForecaster.forecast(model, trainLen, h)
            val actual = s.values.slice(trainLen, trainLen + h)
            ForecastRow(d.name, h, Metrics.rmse(pred, actual), Metrics.mae(pred, actual))
          }
        }
      }
    }
    rows.createOrReplaceTempView("forecasts")
    spark.sql(
      """SELECT algo, horizon, AVG(rmse) AS rmse, AVG(mae) AS mae, COUNT(*) AS n
        |FROM forecasts GROUP BY algo, horizon ORDER BY algo, horizon""".stripMargin)
  }

  /** Tables 7 & 8 — average runtime and F1 vs series length. */
  def table7and8(spark: SparkSession, count: Int = 50,
                 lengths: Seq[Int] = Seq(500, 1000, 2000)): (DataFrame, DataFrame) = {
    val (det, met) = run(spark, table7and8Series(count, lengths), multiDetectors)
    (EvalSql.runtimes(det), met)
  }

  /** Every table's default corpus with the detectors its table runs:
    * 1,058 series, Table 6 as the training windows its detectors see.
    */
  def corpora: Seq[(String, Seq[Series], Seq[Detector])] = Seq(
    ("1", table1Series(), singleDetectors),
    ("2", table2Series(), multiDetectors),
    ("3", table3Series(), multiDetectors),
    ("4", table4Series, multiDetectors),
    ("5", table5Series(), ablationDetectors),
    ("6", table6Series().map(s => s.copy(values = s.values.take(Table6TrainLen))), multiDetectors),
    ("7and8", table7and8Series(), multiDetectors),
  )

  /** Detected period lists of every detector on every table's corpus, as
    * sorted `table  cond  id  algo  periods` lines — the reference output
    * two builds are diffed on.
    */
  def periods(spark: SparkSession): Seq[String] =
    corpora.flatMap { case (table, series, detectors) =>
      SparkDetect.detect(SparkDetect.toDataset(spark, series), detectors).collect()
        .map(r => (table, r.cond, r.id, r.algo, r.detected.mkString("(", ",", ")")))
    }.sorted.map(_.productIterator.mkString("  "))

  /** Pretty-print a metrics DataFrame for bench output / EXPERIMENTS.md. */
  def render(df: DataFrame, title: String): String = {
    val sb = new StringBuilder(s"\n=== $title ===\n")
    df.collect().foreach { r =>
      sb.append(r.toSeq.map {
        case d: Double => f"$d%.3f"
        case x         => x.toString
      }.mkString(" | ")).append('\n')
    }
    sb.toString
  }
}
