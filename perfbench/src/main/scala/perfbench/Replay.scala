package perfbench

import repro.core.{FisherTest, HuberACF, HuberPeriodogram, Preprocess, RobustStats}
import repro.core.RobustPeriod.{Config, LevelResult, Result}
import repro.wavelet.MODWT

import scala.collection.mutable.ArrayBuffer

/** One timed interval of the traced run. `parent` is the id of the
  * enclosing span (-1 for a root); spans of one series share `series`.
  */
final case class Span(id: Int, name: String, series: Long, parent: Int,
                      startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder; written out once, when the run ends. */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]

  def span[A](name: String, series: Long, parent: Int)(body: Int => A): A = {
    val id = spans.length
    spans += null // reserve the id so children can point at it
    val t0 = System.nanoTime()
    val out = body(id)
    spans(id) = Span(id, name, series, parent, t0, System.nanoTime())
    out
  }

  def writeJsonl(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"name":"${s.name}","series":${s.series},"parent":${s.parent},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
      w.newLine()
    } finally w.close()
  }
}

/** Counts taken at the stage boundaries of one replayed series. Every
  * processed level runs one Fisher test; every significant one hands one
  * candidate to the ACF validation; an accepted candidate is a level that
  * yields a period.
  */
final case class StageCounts(fits: Int, processed: Int, skipped: Int,
                             significant: Int, accepted: Int)

/** Re-drives `RobustPeriod.detect` stage by stage through the public
  * functions of `core` and `wavelet`, with a span around every call. The
  * sequence mirrors `RobustPeriod.detect` line for line; the benchmark
  * fails the run when the replay's `Result` differs from the real one, so
  * a pipeline change that this file does not follow is caught, not
  * silently mis-attributed.
  */
object Replay {

  /** Leaf stages: their spans partition a series' time, less what no
    * stage covers (padding, argmax, dedupe, bookkeeping).
    */
  val LeafStages: Seq[String] =
    Seq("preprocess", "modwt", "wavelet_var", "standardize", "periodogram", "fisher", "acf")

  def detect(y: Array[Double], cfg: Config, series: Long, tr: Tracer): (Result, StageCounts) =
    tr.span("detect", series, -1) { root =>
      val n = y.length
      require(n >= 16, "series too short")
      val pre = tr.span("preprocess", series, root)(_ => Preprocess(y, cfg.hpLambda, cfg.clipC))
      val j   = MODWT.defaultLevels(n, cfg.waveletOrder, cfg.maxLevels)
      val dec = tr.span("modwt", series, root)(_ => MODWT.transform(pre, j, cfg.waveletOrder))
      val l1  = 2 * cfg.waveletOrder
      val variances = tr.span("wavelet_var", series, root) { _ =>
        (1 to j).map { lvl =>
          val from = math.min(MODWT.filterWidth(l1, lvl) - 1, 3 * n / 4)
          if (cfg.useRobustVariance) RobustStats.biweightMidvariance(dec.w(lvl - 1), from)
          else RobustStats.variance(dec.w(lvl - 1).drop(from))
        }
      }
      val totalVar = variances.sum
      val order = (1 to j).sortBy(lvl => -variances(lvl - 1))
      val levelResults = ArrayBuffer.empty[LevelResult]
      val found        = ArrayBuffer.empty[(Int, Double)]
      var fits, processed, skipped, significant, accepted = 0

      for (lvl <- order) {
        val v = variances(lvl - 1)
        if (totalVar > 0 && v < cfg.minVarianceFraction * totalVar) {
          skipped += 1
          levelResults += LevelResult(lvl, v, 1.0, 0.0, 0)
        } else tr.span(s"level.L$lvl", series, root) { lv =>
          processed += 1
          val w  = tr.span("standardize", series, lv)(_ => RobustStats.robustStandardize(dec.w(lvl - 1)))
          val x  = new Array[Double](2 * n)
          System.arraycopy(w, 0, x, 0, n)
          val nP = 2 * n
          val band = (nP / (1 << (lvl + 1)), nP / (1 << lvl))
          val pHalf = tr.span(s"periodogram.L$lvl", series, lv) { _ =>
            if (cfg.useHuberPeriodogram) {
              fits += math.min(n, band._2) - math.max(1, band._1) + 1
              HuberPeriodogram.spliced(x, band, cfg.huberZeta, cfg.admmIter)
            } else HuberPeriodogram.vanilla(x).take(n + 1)
          }
          val even   = Array.tabulate(n / 2 + 1)(i => pHalf(2 * i))
          val bandLo = math.max(1, (band._1 + 1) / 2)
          val bandHi = math.min(n / 2, band._2 / 2)
          val minOrd = 16
          var lo = bandLo
          var hi = bandHi
          if (hi - lo + 1 < minOrd) {
            lo = math.max(1, hi - minOrd + 1)
            if (hi - lo + 1 < minOrd) hi = math.min(n / 2, lo + minOrd - 1)
          }
          val fisher = tr.span("fisher", series, lv)(_ => FisherTest.test(even, kFrom = lo, kTo = hi))
          var kMax = 1
          var best = -1.0
          var kk   = 1
          while (kk < pHalf.length) {
            if (pHalf(kk) > best) { best = pHalf(kk); kMax = kk }
            kk += 1
          }
          if (fisher.pValue >= cfg.fisherAlpha) {
            levelResults += LevelResult(lvl, v, fisher.pValue, 0.0, 0)
          } else {
            significant += 1
            val candPeriod = nP.toDouble / kMax
            val fin = tr.span("acf", series, lv) { _ =>
              HuberACF.validate(HuberACF.fromPeriodogram(pHalf), kMax, nP, cfg.acfMinHeight)
            }
            if (fin.isDefined) accepted += 1
            fin.foreach(p => found += ((p, v)))
            levelResults += LevelResult(lvl, v, fisher.pValue, candPeriod, fin.getOrElse(0))
          }
        }
      }

      val periods = ArrayBuffer.empty[Int]
      found.sortBy(-_._2).foreach { case (p, _) =>
        val dup = periods.exists(q => math.abs(q - p) <= math.max(1.0, 0.05 * math.min(q, p)))
        if (!dup) periods += p
      }
      (Result(periods.toSeq, levelResults.sortBy(_.level).toSeq),
        StageCounts(fits, processed, skipped, significant, accepted))
    }
}
