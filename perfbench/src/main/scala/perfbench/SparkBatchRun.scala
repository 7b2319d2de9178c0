package perfbench

import repro.core.RobustPeriod
import repro.core.RobustPeriod.Config
import repro.eval.{Scoring, Tables}
import repro.spark.DetectionRow
import repro.synth.Datasets.Series

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The corpus through `SparkDetect` → `EvalSql` at local[nproc], one pass
  * after another, each collected before the next starts.
  */
object SparkBatchRun {

  /** Direct `RobustPeriod.detect` on every series, one thread per
    * processor: the reference Spark must reproduce, and the detector's
    * JIT warm-up. None where the call threw.
    */
  def reference(series: Seq[Series], cfg: Config): Map[Long, Option[Seq[Int]]] = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try {
      val tasks = series.map { s =>
        new Callable[(Long, Option[Seq[Int]])] {
          def call() = s.id -> (try Some(RobustPeriod.detect(s.values, cfg).periods)
                                catch { case NonFatal(_) => None })
        }
      }
      pool.invokeAll(tasks.asJava).asScala.map(_.get).toMap
    } finally pool.shutdownNow()
  }

  /** Checks a pass's rows against the reference, series by series, and
    * its SQL F1 against `eval.Scoring` on the same rows. Returns the
    * number of series that failed (threw, or produced no row).
    */
  def verify(pass: SparkRig.Pass, series: Seq[Series], ref: Map[Long, Option[Seq[Int]]],
             checks: Checks): Int = {
    val byId = pass.rows.groupBy(_.id)
    checks(pass.rows.length == series.length, s"${pass.rows.length} rows for ${series.length} series")
    series.foreach { s =>
      val got = byId.get(s.id).flatMap(_.headOption).map(_.detected.toSeq)
      val want = ref(s.id).getOrElse(Guarded.Failed)
      checks(got.contains(want), s"series ${s.id} (${s.cond}): Spark gave $got, direct detect $want")
    }
    for (cond <- series.map(_.cond).distinct; tol <- Tables.Tolerances) {
      val rows  = pass.rows.filter(_.cond == cond)
      val local = Scoring.aggregate(rows.map(r => Scoring.score(r.detected.toSeq, r.truth.toSeq, tol))).f1
      val sql   = pass.f1ByCond.getOrElse((cond, tol), Double.NaN)
      checks(math.abs(sql - local) < 1e-12, s"EvalSql F1 $sql != Scoring F1 $local for $cond tol $tol")
    }
    series.count(s => !byId.get(s.id).exists(rs => ok(rs.head)))
  }

  def ok(r: DetectionRow): Boolean = r.detected.toSeq != Guarded.Failed

  def run(o: Main.Opts): Outcome = {
    val spark = SparkRig.session(o)
    try {
      val cfg      = o.workload.cfg
      val series   = o.workload.corpus(o.seed)
      val detector = new Guarded(cfg)
      val checks   = new Checks
      val ref      = reference(series, cfg)

      // The reference run has warmed the detector's JIT; Spark warms on
      // passes over the shortest quarter of the corpus. The first pass
      // carries the too-short probe, which must come back as one failed
      // row without failing the job.
      val t0w   = System.nanoTime()
      val probe = Guarded.TooShort
      val short = series.sortBy(_.values.length).take(series.length / 4)
      val first = SparkRig.pass(spark, short :+ probe, detector)
      checks(first.rows.exists(r => r.id == probe.id && !ok(r)), "the probe series was not counted as failed")
      Warmup.untilSteady(t0w, minS = 0, maxS = 30, roundS = 0)(SparkRig.pass(spark, short, detector).wallMs)

      val setupS = Main.sinceJvmStartS()
      var passes = Vector.empty[SparkRig.Pass]
      val t0 = System.nanoTime()
      while (passes.isEmpty || System.nanoTime() - t0 < o.seconds * 1000000000L)
        passes :+= SparkRig.pass(spark, series, detector)
      val wallS = (System.nanoTime() - t0) / 1e9

      val failed    = passes.map(verify(_, series, ref, checks)).sum
      val attempted = passes.length * series.length
      val rows      = passes.flatMap(_.rows).filter(ok)
      println(f"# passes=${passes.length} pass_ms=${passes.map(_.wallMs.round).mkString(",")}")
      val pairs = passes.head.rows.filter(ok).map(r => (r.detected.toSeq, r.truth.toSeq)).toSeq
      Outcome(checks.ok, attempted, failed,
        Stats.endToEnd(setupS, rows.map(r => (r.id, r.millis)), attempted - failed, wallS, pairs, attempted, failed))
    } finally spark.stop()
  }
}
