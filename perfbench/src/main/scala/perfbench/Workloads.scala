package perfbench

import repro.baselines.{Detector, RobustPeriodDetector}
import repro.core.RobustPeriod.Config
import repro.synth.Datasets
import repro.synth.Datasets.Series
import repro.synth.TimeSeriesGen
import repro.synth.TimeSeriesGen.{Sin, Square, Triangle}

import scala.util.Random
import scala.util.control.NonFatal

/** How a workload feeds the system. */
sealed trait Runner
case object SingleThread extends Runner
case object SparkBatch   extends Runner
case object Streaming    extends Runner

/** A benchmark workload: a seeded corpus, the detector configuration it
  * runs, and the layer that drives it. Why each exists is recorded next to
  * its name in BENCHMARK.json. A single-thread workload times calls on the
  * first `timed` series of its corpus, each several times over, after
  * `warmPasses` passes over the whole corpus.
  */
final case class Workload(name: String, runner: Runner, cfg: Config,
                          corpus: Long => IndexedSeq[Series],
                          timed: Int = Int.MaxValue, warmPasses: Int = 1)

object Workloads {

  /** NR-RobustPeriod: vanilla periodogram and plain variance. */
  val NrConfig: Config = Config(useHuberPeriodogram = false, useRobustVariance = false)

  /** Table 7's corpus: sin with T = {20, 50, 100}, σ² = 0.1, η = 0.01. */
  def sin3(n: Int, count: Int)(seed: Long): IndexedSeq[Series] =
    Datasets.multiPeriod(count, Sin, 0.1, 0.01, seed = seed * 10007L, n = n).toIndexedSeq

  /** `Datasets.cranLike()` with its shape (length, period, waveform, noise
    * level) fixed and only the noise and outlier draws taken from `seed`:
    * the lengths are heavy-tailed and the cost is O(N²), so a seeded shape
    * would swing throughput far more than any code change. Equals
    * `Datasets.cranLike()` at seed 31.
    */
  def cranLike(seed: Long): IndexedSeq[Series] = {
    val rnd = new Random(31)
    (0 until 82).map { i =>
      val period = 4 + rnd.nextInt(49)
      val cycles = 4 + rnd.nextInt(40)
      val n      = math.min(3024, math.max(64, period * cycles))
      val form   = Seq(Sin, Square, Triangle)(rnd.nextInt(3))
      val sigma2 = 0.05 + 0.2 * rnd.nextDouble()
      val eta    = if (rnd.nextDouble() < 0.5) 0.0 else 0.02
      Series(i, "cran-like",
        TimeSeriesGen.synthetic(n, Seq(period), form, sigma2, eta, seed * 1000 + i, trendAmp = 5.0),
        Array(period))
    }
  }

  /** Table 5's severe multi-period sin (σ² = 2, η = 0.2, N = 1000). */
  def severe(seed: Long): IndexedSeq[Series] =
    Datasets.multiPeriod(18, Sin, 2.0, 0.2, seed = seed * 10007L + 5100, n = 1000)
      .map(s => s.copy(id = 1000 + s.id)).toIndexedSeq

  val all: Seq[Workload] = Seq(
    // ~250 ms a call: F1 is scored on all 48 series (one warm-up pass), and
    // 8 timed series get ~14 calls each in 30 s.
    Workload("sin3-n1000", SingleThread, Config(), sin3(1000, 48), timed = 8, warmPasses = 1),
    // ~33 ms a call: the NR path's JIT needs a few passes to settle.
    Workload("nr-sin3-n2000", SingleThread, NrConfig, sin3(2000, 48), warmPasses = 4),
    Workload("spark-batch-mixed", SparkBatch, Config(), seed => cranLike(seed) ++ severe(seed)),
    Workload("stream-sin3-n500", Streaming, Config(), sin3(500, 64)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))
}

/** RobustPeriod as a [[Detector]] that turns a per-series exception into
  * the [[Guarded.Failed]] marker, so one bad series is counted as failed
  * instead of aborting a Spark task or a streaming batch.
  */
final class Guarded(cfg: Config) extends Detector {
  private val inner = new RobustPeriodDetector(cfg)
  val name: String = inner.name
  def detect(x: Array[Double]): Seq[Int] =
    try inner.detect(x) catch { case NonFatal(_) => Guarded.Failed }
}

object Guarded {
  val Failed: Seq[Int] = Seq(-1)

  /** A series too short for RobustPeriod: the probe that shows a throwing
    * series is caught and counted.
    */
  val TooShort: Series = Series(-1, "probe", Array.tabulate(8)(_.toDouble), Array(2))
}
