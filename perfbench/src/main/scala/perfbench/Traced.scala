package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.core.RobustPeriod
import repro.synth.Datasets.Series

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The traced run: every per-layer metric, measured on the workload's own
  * inputs and configuration, whatever layer the workload itself drives.
  *
  *  1. core/wavelet: for `--seconds`, each series is detected untraced and
  *     then replayed stage by stage with spans ([[Replay]]); the two
  *     `Result`s must be equal. The first third of the time is warm-up.
  *  2. spark.SparkDetect / EvalSql: one warm-up pass, carrying a series
  *     that must fail, and one measured pass over the corpus, with a
  *     [[TaskProbe]] listener.
  *  3. spark.StreamingDetect: the [[StreamFeed]] over the corpus, four
  *     warm-up and eight measured micro-batches, read from
  *     `StreamingQueryProgress`.
  *
  * Rows from both Spark paths must equal direct `RobustPeriod.detect`
  * output, series by series.
  */
object Traced {

  val MaxLevel = 8

  def run(o: Main.Opts): Outcome = {
    val spark = SparkRig.session(o)
    try {
      val cfg    = o.workload.cfg
      val corpus = o.workload.corpus(o.seed)
      val checks = new Checks
      val core   = coreLayers(o, corpus, cfg, checks)
      val ref    = SparkBatchRun.reference(corpus, cfg)
      val batch  = sparkLayers(spark, corpus, cfg, ref, checks)
      val stream = streamLayers(o, spark, corpus, cfg, ref, checks)
      Outcome(checks.ok, core.attempted, core.failed, core.metrics ++ batch ++ stream)
    } finally spark.stop()
  }

  final case class Core(attempted: Int, failed: Int, metrics: Seq[Metric])

  def coreLayers(o: Main.Opts, corpus: IndexedSeq[Series], cfg: RobustPeriod.Config,
                 checks: Checks): Core = {
    val tracer   = new Tracer
    val untraced = ArrayBuffer.empty[Double]
    val traced   = ArrayBuffer.empty[Double]
    val counts   = ArrayBuffer.empty[StageCounts]
    val measured = ArrayBuffer.empty[Long] // series ids, tagged per measured replay
    var attempted, failed, i = 0
    val t0 = System.nanoTime()
    val warmNs = o.seconds * 1000000000L / 3
    while (measured.isEmpty || System.nanoTime() - t0 < o.seconds * 1000000000L) {
      val s   = corpus(i % corpus.length)
      val tag = i.toLong // distinct per replay, so spans of one call share it
      val warm = System.nanoTime() - t0 < warmNs
      try {
        val a = System.nanoTime()
        val want = RobustPeriod.detect(s.values, cfg)
        val b = System.nanoTime()
        val (got, c) = Replay.detect(s.values, cfg, tag, tracer)
        val e = System.nanoTime()
        checks(got == want, s"replay of series ${s.id} differs from RobustPeriod.detect:\n  $got\n  $want")
        if (!warm) {
          attempted += 1
          untraced += (b - a) / 1e6
          traced += (e - b) / 1e6
          counts += c
          measured += tag
        }
      } catch {
        case NonFatal(ex) =>
          Console.err.println(s"[perfbench] series ${s.id}: $ex")
          if (!warm) { attempted += 1; failed += 1 }
      }
      i += 1
    }
    tracer.writeJsonl(o.outDir.resolve(s"spans-${o.workload.name}-seed${o.seed}.jsonl"))

    val keep  = measured.toSet
    val spans = tracer.spans.filter(sp => keep(sp.series))
    val perSeries = measured.length.toDouble
    def stageMs(p: Span => Boolean): Double = spans.filter(p).map(_.ms).sum / perSeries
    def stage(name: String): Double = stageMs(_.name.takeWhile(_ != '.') == name)
    val rootMs  = stageMs(_.parent < 0)
    val leafMs  = Replay.LeafStages.map(stage).sum
    val pgramMs = stage("periodogram")
    val fits    = counts.map(_.fits).sum
    val processed   = counts.map(_.processed).sum
    val significant = counts.map(_.significant).sum
    val accepted    = counts.map(_.accepted).sum
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    println(f"# traced series=${measured.length} untraced_p50=${Stats.median(untraced.toSeq)}%.2f ms " +
      f"traced_p50=${Stats.median(traced.toSeq)}%.2f ms spans=${tracer.spans.length}")

    Core(attempted, failed, Seq(
      Metric("preprocess.ms", stage("preprocess"), "ms"),
      Metric("modwt.ms", stage("modwt"), "ms"),
      Metric("wavelet_var.ms", stage("wavelet_var"), "ms"),
      Metric("standardize.ms", stage("standardize"), "ms"),
      Metric("periodogram.ms", pgramMs, "ms"),
    ) ++ (1 to MaxLevel).map(l => Metric(s"periodogram.ms.L$l", stageMs(_.name == s"periodogram.L$l"), "ms")) ++ Seq(
      Metric("periodogram.fits", fits / perSeries, "count"),
      Metric("periodogram.us_per_fit", ratio(pgramMs * perSeries * 1000, fits), "us"),
      Metric("periodogram.share", ratio(pgramMs, rootMs), "ratio"),
      Metric("fisher.ms", stage("fisher"), "ms"),
      Metric("fisher.tests", processed / perSeries, "count"),
      Metric("fisher.significant", significant / perSeries, "count"),
      Metric("acf.ms", stage("acf"), "ms"),
      Metric("acf.candidates", significant / perSeries, "count"),
      Metric("acf.accept_ratio", ratio(accepted, significant), "ratio"),
      Metric("levels.processed", processed / perSeries, "count"),
      Metric("levels.skipped_low_var", counts.map(_.skipped).sum / perSeries, "count"),
      Metric("levels.useful_ratio", ratio(accepted, processed), "ratio"),
      Metric("trace.unattributed_ms", rootMs - leafMs, "ms"),
      Metric("trace.overhead_ratio", Stats.median(traced.toSeq) / Stats.median(untraced.toSeq), "ratio"),
    ))
  }

  def sparkLayers(spark: SparkSession, corpus: IndexedSeq[Series], cfg: RobustPeriod.Config,
                  ref: Map[Long, Option[Seq[Int]]], checks: Checks): Seq[Metric] = {
    val sc    = spark.sparkContext
    val probe = new TaskProbe
    sc.addSparkListener(probe)
    val detector = new Guarded(cfg)
    val tooShort = Guarded.TooShort
    val warm = SparkRig.pass(spark, corpus :+ tooShort, detector)
    checks(warm.rows.exists(r => r.id == tooShort.id && !SparkBatchRun.ok(r)),
      "the too-short probe series was not counted as failed")
    probe.fence(sc)
    probe.reset()
    val p = SparkRig.pass(spark, corpus, detector)
    probe.fence(sc)
    sc.removeSparkListener(probe)
    SparkBatchRun.verify(p, corpus, ref, checks)

    val tasks = probe.tasksOf("detect")
    // The detection runs in the stage whose tasks took longest in total.
    val stage  = tasks.groupBy(_.stage).maxBy(_._2.map(_.runMs).sum)._2
    val maxMs  = stage.map(_.runMs).max.toDouble
    val meanMs = stage.map(_.runMs).sum.toDouble / stage.length
    val cores  = sc.defaultParallelism
    println(f"# spark detect tasks=${stage.length} task_ms=${stage.map(_.runMs).mkString(",")}")
    Seq(
      Metric("spark.to_dataset.ms", p.toDatasetMs, "ms"),
      Metric("spark.detect.wall_ms", p.detectMs, "ms"),
      Metric("spark.detect.task_ms_max", maxMs, "ms"),
      Metric("spark.detect.task_ms_mean", meanMs, "ms"),
      Metric("spark.detect.skew", maxMs / meanMs, "ratio"),
      Metric("spark.detect.busy_frac", p.rows.map(_.millis).sum / (p.detectMs * cores), "ratio"),
      Metric("spark.gc_ms", tasks.map(_.gcMs).sum.toDouble, "ms"),
      Metric("spark.score_sql.ms", p.scoreMs, "ms"),
    )
  }

  def streamLayers(o: Main.Opts, spark: SparkSession, corpus: IndexedSeq[Series],
                   cfg: RobustPeriod.Config, ref: Map[Long, Option[Seq[Int]]],
                   checks: Checks): Seq[Metric] = {
    val feed = new StreamFeed(spark, corpus, new Guarded(cfg), SparkRig.checkpointDir(o, "trace"))
    try {
      (1 to 4).foreach(_ => feed.step())
      val first = feed.query.lastProgress.batchId + 1
      val measured = (1 to 8).flatMap(_ => feed.step()._2.map(_._1))
      val progress: Seq[StreamingQueryProgress] =
        feed.query.recentProgress.toSeq.filter(p => p.batchId >= first && p.numInputRows > 0)
      require(progress.nonEmpty, "no streaming progress recorded")
      def p50(key: String) = Stats.median(progress.map(_.durationMs.asScala.get(key).map(_.toDouble).getOrElse(0.0)))
      val ops = progress.flatMap(_.stateOperators.headOption)
      val detectorMs = measured.flatMap(id => Option(feed.arrived.get(id))).map(_._2.millis).sum
      StreamRun.verify(feed, corpus, ref, checks)
      println(s"# stream batches=${progress.length} batch_ms=${progress.map(_.durationMs.get("triggerExecution")).mkString(",")}")
      Seq(
        Metric("stream.batch_ms_p50", p50("triggerExecution"), "ms"),
        Metric("stream.addBatch_ms_p50", p50("addBatch"), "ms"),
        Metric("stream.walCommit_ms_p50", p50("walCommit"), "ms"),
        Metric("stream.state_commit_ms_p50", Stats.median(ops.map(_.commitTimeMs.toDouble)), "ms"),
        Metric("stream.state_rows_max", ops.map(_.numRowsTotal).max.toDouble, "rows"),
        Metric("stream.detector_ms_sum", detectorMs, "ms"),
      )
    } finally feed.stop()
  }
}
