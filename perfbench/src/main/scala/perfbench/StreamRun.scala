package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.spark.{DetectionRow, StreamingDetect}
import repro.spark.StreamingDetect.Point
import repro.synth.Datasets.Series

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** A `StreamingDetect.detections` query over a `MemoryStream`, fed in a
  * closed loop: the next micro-batch is added once `processAllAvailable`
  * has returned.
  *
  * `Slots` series are in flight at once, each streamed in `Chunks`
  * micro-batches. Slot s starts on batch s mod `Chunks`, so the starts
  * are staggered and every steady batch completes Slots / Chunks series.
  * A finished slot takes the next pool series under a fresh id.
  */
final class StreamFeed(spark: SparkSession, pool: IndexedSeq[Series], detector: Guarded,
                       checkpoint: String) {
  import spark.implicits._
  import StreamFeed._

  private val stream = MemoryStream[Point](spark)
  /** Completed rows, keyed by streamed id, with the time they reached the sink. */
  val arrived = new ConcurrentHashMap[Long, (Long, DetectionRow)]()
  private val sink: (Dataset[DetectionRow], Long) => Unit = (ds, _) => {
    val rows = ds.collect()
    val now  = System.nanoTime()
    rows.foreach(r => arrived.put(r.id, (now, r)))
  }
  val query: StreamingQuery = StreamingDetect.detections(stream.toDS(), detector)
    .writeStream.option("checkpointLocation", checkpoint).foreachBatch(sink).start()

  /** Pool index behind each streamed id. */
  val poolIndex = scala.collection.mutable.Map.empty[Long, Int]
  private var batch  = 0
  private var nextId = 0L
  private val slot   = Array.fill(Slots)((-1L, 0)) // (streamed id, next chunk)

  /** Adds one micro-batch and waits for it. Returns the batch's wall time
    * in ms and, for each series it completed, the ns time of its addData.
    */
  def step(extra: Seq[Point] = Nil): (Double, Seq[(Long, Long)]) = {
    val points    = ArrayBuffer.empty[Point] ++= extra
    val completed = ArrayBuffer.empty[Long]
    for (s <- 0 until Slots if batch >= s % Chunks) {
      if (slot(s)._1 < 0) {
        poolIndex(nextId) = (nextId % pool.length).toInt
        slot(s) = (nextId, 0)
        nextId += 1
      }
      val (id, c) = slot(s)
      val series  = pool(poolIndex(id))
      val n       = series.values.length
      val (from, until) = (c * n / Chunks, (c + 1) * n / Chunks)
      var t = from
      while (t < until) { points += Point(id, series.cond, t.toLong, series.values(t), n); t += 1 }
      if (c + 1 == Chunks) { completed += id; slot(s) = (-1L, 0) } else slot(s) = (id, c + 1)
    }
    val t0 = System.nanoTime()
    stream.addData(points.toSeq)
    query.processAllAvailable()
    batch += 1
    ((System.nanoTime() - t0) / 1e6, completed.map(_ -> t0).toSeq)
  }

  def stop(): Unit = query.stop()
}

object StreamFeed {
  val Slots  = 8
  val Chunks = 4
}

object StreamRun {

  /** Every streamed row must equal direct detection of its series. */
  def verify(feed: StreamFeed, pool: IndexedSeq[Series], ref: Map[Long, Option[Seq[Int]]],
             checks: Checks): Unit =
    feed.arrived.asScala.foreach { case (id, (_, r)) =>
      if (id >= 0) {
        val want = ref(pool(feed.poolIndex(id)).id).getOrElse(Guarded.Failed)
        checks(r.detected.toSeq == want, s"streamed id $id: ${r.detected.toSeq} != direct $want")
      }
    }

  def run(o: Main.Opts): Outcome = {
    val spark = SparkRig.session(o)
    try {
      val cfg      = o.workload.cfg
      val pool     = o.workload.corpus(o.seed)
      val checks   = new Checks
      val ref      = SparkBatchRun.reference(pool, cfg)
      val feed     = new StreamFeed(spark, pool, new Guarded(cfg), SparkRig.checkpointDir(o, "stream"))
      try {
        // Warm-up: the first batch carries the too-short probe; Spark's
        // streaming path keeps speeding up for dozens of batches.
        val t0w   = System.nanoTime()
        val probe = Guarded.TooShort
        feed.step(probe.values.indices.map(t => Point(-1, probe.cond, t.toLong, probe.values(t), probe.values.length)))
        checks(Option(feed.arrived.get(-1L)).exists(_._2.detected.toSeq == Guarded.Failed),
          "the probe series was not counted as failed")
        Warmup.untilSteady(t0w, minS = 12, maxS = 30, roundS = 3)(feed.step()._1)

        val setupS = Main.sinceJvmStartS()
        val due = ArrayBuffer.empty[(Long, Long)]
        var batches = 0
        val t0 = System.nanoTime()
        while (System.nanoTime() - t0 < o.seconds * 1000000000L) { due ++= feed.step()._2; batches += 1 }
        val wallS = (System.nanoTime() - t0) / 1e9

        val got = due.map { case (id, tAdd) => (id, tAdd, Option(feed.arrived.get(id))) }
        val failed = got.count { case (_, _, a) => a.forall(_._2.detected.toSeq == Guarded.Failed) }
        val lat = got.collect { case (id, tAdd, Some((tArr, r))) if r.detected.toSeq != Guarded.Failed =>
          (id, (tArr - tAdd) / 1e6) }
        verify(feed, pool, ref, checks)
        // F1 over the whole pool, from the direct detections the streamed
        // rows were just checked against: more series than one run streams,
        // so F1 does not hinge on which of them completed in time.
        val pairs = pool.flatMap(s => ref(s.id).map(d => (d, s.truth.toSeq)))
        println(s"# batches=$batches completed=${due.length} streamed_rows=${feed.arrived.size}")
        Outcome(checks.ok, due.length, failed,
          Stats.endToEnd(setupS, lat.toSeq, due.length - failed, wallS, pairs, due.length, failed))
      } finally feed.stop()
    } finally spark.stop()
  }
}
