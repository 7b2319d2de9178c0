package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.Detector
import repro.eval.Tables
import repro.spark.{DetectionRow, EvalSql, SparkDetect}
import repro.synth.Datasets.Series

import java.util.concurrent.ConcurrentHashMap
import scala.collection.concurrent.TrieMap

/** The benchmark's own SparkSession: master, parallelism and shuffle
  * partitions pinned to the machine's processors, no UI, WARN logging,
  * and every scratch directory inside the run's output directory.
  */
object SparkRig {

  /** Per-process scratch directory; the launcher deletes it after the run. */
  private def scratch(o: Main.Opts) =
    o.outDir.resolve(s"spark-${ProcessHandle.current.pid}").toAbsolutePath

  def session(o: Main.Opts): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.default.parallelism", cores.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", scratch(o).resolve("local").toString)
      .config("spark.sql.warehouse.dir", scratch(o).resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    Main.header(o, spark.sparkContext.master, spark.conf.get("spark.sql.shuffle.partitions"))
    spark
  }

  def checkpointDir(o: Main.Opts, name: String): String =
    scratch(o).resolve("checkpoints").resolve(name).toString

  /** One detection pass as `Tables.run` chains it: `toDataset` → `detect` →
    * `score` → `EvalSql.metrics`, with the detections and the metrics
    * collected. Jobs run under job groups "detect" and "score" so a
    * [[TaskProbe]] can attribute their tasks.
    */
  final case class Pass(rows: Array[DetectionRow], f1ByCond: Map[(String, Double), Double],
                        toDatasetMs: Double, detectMs: Double, scoreMs: Double, wallMs: Double)

  def pass(spark: SparkSession, series: Seq[Series], detector: Detector): Pass = {
    val sc = spark.sparkContext
    val t0 = System.nanoTime()
    val ds = SparkDetect.toDataset(spark, series)
    val t1 = System.nanoTime()
    sc.setJobGroup("detect", "perfbench detect")
    val det: Dataset[DetectionRow] = SparkDetect.detect(ds, Seq(detector)).cache()
    val rows = det.collect()
    val t2 = System.nanoTime()
    sc.setJobGroup("score", "perfbench score")
    val metrics = EvalSql.metrics(SparkDetect.score(det, Tables.Tolerances)).collect()
    val t3 = System.nanoTime()
    sc.clearJobGroup()
    det.unpersist(blocking = true)
    val f1 = metrics.map(r => (r.getAs[String]("cond"), r.getAs[Double]("tol")) -> r.getAs[Double]("f1")).toMap
    Pass(rows, f1, (t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t2) / 1e6, (t3 - t0) / 1e6)
  }
}

/** Task run and GC time per job group, read from a `SparkListener` on the
  * benchmark's session. Listener events arrive asynchronously, so readers
  * call [[fence]] first.
  */
final class TaskProbe extends SparkListener {
  final case class Task(stage: Int, runMs: Long, gcMs: Long)

  private val groupOfJob  = TrieMap.empty[Int, String]
  private val groupOfStage = TrieMap.empty[Int, String]
  private val ended   = new ConcurrentHashMap[String, Int]()
  private val tasks   = TrieMap.empty[String, Vector[Task]]

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      groupOfJob(e.jobId) = g
      e.stageIds.foreach(groupOfStage(_) = g)
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (g <- groupOfStage.get(e.stageId); m <- Option(e.taskMetrics))
      tasks.updateWith(g)(v => Some(v.getOrElse(Vector.empty) :+ Task(e.stageId, m.executorRunTime, m.jvmGCTime)))

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    groupOfJob.get(e.jobId).foreach(ended.merge(_, 1, _ + _))

  /** Forget everything seen so far. */
  def reset(): Unit = { groupOfJob.clear(); groupOfStage.clear(); ended.clear(); tasks.clear() }

  private val fences = new java.util.concurrent.atomic.AtomicInteger()

  /** Run a one-task job and wait until the listener has seen it end. The
    * bus delivers events in order, so everything posted before the fence,
    * such as the task ends of a job that already returned, has arrived too.
    */
  def fence(sc: SparkContext, timeoutMs: Long = 30000): Unit = {
    val g = s"fence-${fences.incrementAndGet()}"
    sc.setJobGroup(g, "perfbench listener fence")
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    while (ended.getOrDefault(g, 0) == 0 && System.currentTimeMillis() < deadline) Thread.sleep(2)
    require(ended.getOrDefault(g, 0) == 1, s"listener did not see $g end")
  }

  def tasksOf(group: String): Vector[Task] = tasks.getOrElse(group, Vector.empty)
}
