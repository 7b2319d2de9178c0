package repro.spark

import org.apache.spark.sql.{Dataset, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.baselines.Detector

/** Structured Streaming driver: per-point telemetry arrives as a stream;
  * state per series accumulates points and a detection is emitted once the
  * advertised point count is reached (monitoring pipelines know the window
  * length up front).
  *
  * This is the streaming face of the same per-series algorithm — the
  * detector itself is identical to the batch path.
  */
object StreamingDetect {

  /** One streamed observation; `n` is the series' total expected length. */
  final case class Point(id: Long, cond: String, t: Long, value: Double, n: Int)

  final case class SeriesState(values: Map[Long, Double])

  def detections(points: Dataset[Point], detector: Detector): Dataset[DetectionRow] = {
    import points.sparkSession.implicits._
    points
      .groupByKey(p => (p.id, p.cond))
      .flatMapGroupsWithState[SeriesState, DetectionRow](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        case ((id, cond), it, state: GroupState[SeriesState]) =>
          val prev = if (state.exists) state.get.values else Map.empty[Long, Double]
          val pts  = it.toSeq
          // Only t ∈ [0, n) fills a slot; other points must not count toward n.
          val acc  = prev ++ pts.collect { case p if p.t >= 0 && p.t < p.n => p.t -> p.value }
          val n    = pts.headOption.map(_.n).getOrElse(-1)
          if (n > 0 && acc.size >= n) {
            state.remove()
            val values = Array.tabulate(n)(t => acc.getOrElse(t.toLong, 0.0))
            val t0  = System.nanoTime()
            val det = detector.detect(values)
            val ms  = (System.nanoTime() - t0) / 1e6
            Iterator.single(DetectionRow(id, cond, detector.name, det.toArray, Array.empty, ms))
          } else {
            state.update(SeriesState(acc))
            Iterator.empty
          }
      }(Encoders.product[SeriesState], Encoders.product[DetectionRow])
  }
}
