package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.Trigger
import repro.SparkSpec
import repro.eval.Tables
import repro.synth.Datasets

class StreamingDetectSpec extends SparkSpec {

  test("streamed per-point telemetry yields the same detections as batch") {
    import spark.implicits._
    implicit val sql = spark.sqlContext
    val series = Datasets.singlePeriodSin(2, 0.1, 0.01, seed = 55, n = 600)
    val detector = Tables.robust

    val stream = MemoryStream[StreamingDetect.Point]
    val out = StreamingDetect.detections(stream.toDS(), detector)
    val query = out.writeStream
      .format("memory")
      .queryName("stream_detections")
      .outputMode("append")
      .trigger(Trigger.ProcessingTime(0))
      .start()
    try {
      // Feed each series in three chunks across micro-batches.
      val points = series.flatMap { s =>
        s.values.zipWithIndex.map { case (v, t) =>
          StreamingDetect.Point(s.id, s.cond, t.toLong, v, s.values.length)
        }
      }
      val chunks = points.grouped(points.size / 3 + 1).toSeq
      chunks.foreach { c => stream.addData(c); query.processAllAvailable() }

      val got = spark.sql("SELECT * FROM stream_detections").as[DetectionRow]
        .collect().sortBy(_.id)
      assert(got.length == series.size, s"got ${got.length} detections")
      got.zip(series.sortBy(_.id)).foreach { case (d, s) =>
        assert(d.detected.toSeq == detector.detect(s.values), s"series ${s.id}")
      }
    } finally query.stop()
  }

  /** Feeds `points` in one micro-batch; returns the number of detections. */
  private def emitted(queryName: String, points: Seq[StreamingDetect.Point]): Long = {
    import spark.implicits._
    implicit val sql = spark.sqlContext
    val stream = MemoryStream[StreamingDetect.Point]
    val query = StreamingDetect.detections(stream.toDS(), Tables.robust).writeStream
      .format("memory").queryName(queryName).outputMode("append").start()
    try {
      stream.addData(points)
      query.processAllAvailable()
      spark.sql(s"SELECT * FROM $queryName").count()
    } finally query.stop()
  }

  private def points(s: Datasets.Series, count: Int): Seq[StreamingDetect.Point] =
    s.values.take(count).toSeq.zipWithIndex.map { case (v, t) =>
      StreamingDetect.Point(s.id, s.cond, t.toLong, v, s.values.length)
    }

  test("incomplete series emit nothing (state held, no spurious output)") {
    val series = Datasets.singlePeriodSin(1, 0.1, 0.01, seed = 56, n = 400).head
    assert(emitted("stream_partial", points(series, 200)) == 0)
  }

  test("points outside [0, n) neither complete a series nor fill a slot") {
    val series = Datasets.singlePeriodSin(1, 0.1, 0.01, seed = 57, n = 400).head
    // t = 0..398 valid, t = 399 missing, one stray point at t = n.
    val stray = StreamingDetect.Point(series.id, series.cond, 400L, 1.0, 400)
    assert(emitted("stream_out_of_range", points(series, 399) :+ stray) == 0)
  }
}
