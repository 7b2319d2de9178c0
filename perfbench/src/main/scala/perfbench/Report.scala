package perfbench

import repro.eval.Scoring

import scala.collection.mutable.ArrayBuffer

final case class Metric(name: String, value: Double, unit: String)

/** What one run reports: the last stdout line is `json`. */
final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]) {
  def json: String = {
    require(metrics.forall(m => !m.value.isNaN && !m.value.isInfinite),
      s"non-finite metric: ${metrics.filter(m => m.value.isNaN || m.value.isInfinite)}")
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Collects correctness failures; the run reports `correct = false` if any. */
final class Checks {
  val failures = ArrayBuffer.empty[String]
  def apply(ok: Boolean, what: => String): Unit = if (!ok) {
    failures += what
    Console.err.println(s"[perfbench] CHECK FAILED: $what")
  }
  def ok: Boolean = failures.isEmpty
}

object Stats {
  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.length - 1)
    val lo  = pos.toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Micro-F1 of detections against truth at a tolerance, via eval.Scoring. */
  def f1(pairs: Seq[(Seq[Int], Seq[Int])], tol: Double): Double =
    Scoring.aggregate(pairs.map { case (det, truth) => Scoring.score(det, truth, tol) }).f1

  /** Per series, its fastest timed call; then the median over series.
    * On a host whose cores are shared with other tenants, one thread's
    * speed can swing by a third between seconds, so a plain median of all
    * calls moves with the neighbours' load. Each series' best call lands in
    * a quiet moment of the run and still carries every saving in the code
    * it timed.
    */
  def bestMedian(samples: Seq[(Long, Double)]): Double =
    median(samples.groupMapReduce(_._1)(_._2)(math.min).values.toSeq)

  /** The end-to-end metrics shared by every workload, from `samples`:
    * (series id, ms to its detection) of every timed call that succeeded.
    * The plain percentiles and throughput of all calls go to the
    * human-readable summary only: they carry the neighbours' load (see
    * [[bestMedian]]). p90 needs ≥ 100 samples.
    */
  def endToEnd(setupS: Double, samples: Seq[(Long, Double)], completed: Int, wallS: Double,
               f1Pairs: Seq[(Seq[Int], Seq[Int])], attempted: Int, failed: Int): Seq[Metric] = {
    val lat = samples.map(_._2)
    val p90 = if (lat.length >= 100) f"${quantile(lat, 0.9)}%.3f" else "n/a"
    println(f"# samples=${lat.length} series=${samples.map(_._1).distinct.length} " +
      f"latency_ms_p50=${median(lat)}%.3f latency_ms_p90=$p90 " +
      f"series_per_s=${completed / wallS}%.3f failed_frac=${failed.toDouble / attempted}%.4f")
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("best_latency_ms_p50", bestMedian(samples), "ms"),
      Metric("f1_tol0", f1(f1Pairs, 0.0), "ratio"),
      Metric("f1_tol2", f1(f1Pairs, 0.02), "ratio"),
      Metric("success_frac", 1.0 - failed.toDouble / attempted, "ratio"),
    )
  }
}

object Warmup {
  /** Repeats `step` (returning the ms one unit of work took) in rounds of
    * at least `roundS` seconds until the timings stop improving: after
    * `minS` seconds, the first round whose median is not 2 % faster than
    * every round before it ends the warm-up; `maxS` caps it. Times count
    * from `t0`, so work done before the call counts toward `minS`.
    */
  def untilSteady(t0: Long, minS: Double, maxS: Double, roundS: Double)(step: => Double): Unit = {
    def elapsedS = (System.nanoTime() - t0) / 1e9
    var best = Double.MaxValue
    var done = false
    var k    = 0
    while (!done) {
      val roundEnd = System.nanoTime() + (roundS * 1e9).toLong
      val ms = ArrayBuffer(step)
      while (System.nanoTime() < roundEnd) ms += step
      val med = Stats.median(ms.toSeq)
      println(f"# warm-up round $k: ${ms.length} steps, median $med%.2f ms")
      done = elapsedS >= maxS || (elapsedS >= minS && med >= 0.98 * best)
      best = math.min(best, med)
      k += 1
    }
  }
}
