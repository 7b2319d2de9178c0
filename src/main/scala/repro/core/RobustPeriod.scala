package repro.core

import repro.wavelet.MODWT

/** The RobustPeriod multiple-periodicity detector (Sec. 3, Fig. 1):
  * preprocess → MODWT decoupling → robust wavelet-variance ranking →
  * per-level Huber-periodogram Fisher test → Huber-ACF-Med validation →
  * deduplicated union of per-level periods.
  */
object RobustPeriod {

  /** Detector settings. Only the two ablation toggles are settable
    * (NR-RobustPeriod sets both to false): Huber M-periodogram vs vanilla
    * FFT periodogram, and biweight midvariance vs plain sample variance for
    * level ranking. The other values are fixed by the paper / DESIGN.md §5.
    */
  final case class Config(
      useHuberPeriodogram: Boolean = true,
      useRobustVariance: Boolean = true,
  ) {
    val waveletOrder: Int = 10
    val maxLevels: Int = 10
    val hpLambda: Double = -1 // ≤0 = length-adaptive (HPFilter.autoLambda)
    val clipC: Double = 3.0
    val huberZeta: Double = 1.345
    val fisherAlpha: Double = 1e-3
    val acfMinHeight: Double = 0.15
    /** Iteration cap of each per-frequency Huber-periodogram fit. */
    val admmIter: Int = 50
    /** Skip levels whose robust variance is below this fraction of the
      * total wavelet variance (saves time on negligible-energy levels).
      */
    val minVarianceFraction: Double = 0.01
  }

  /** Per-level diagnostics (mirrors the columns of the paper's Fig. 5). */
  final case class LevelResult(
      level: Int,
      variance: Double,
      fisherP: Double,
      periodogramPeriod: Double, // N'/kmax, 0 if not significant
      acfPeriod: Int,            // validated final period, 0 if rejected
  )

  /** `periods` are ranked by the wavelet variance of the level that found them. */
  final case class Result(periods: Seq[Int], levels: Seq[LevelResult])

  def detect(y: Array[Double], cfg: Config = Config()): Result = {
    val n = y.length
    require(n >= 16, "series too short")
    val pre = Preprocess(y, cfg.hpLambda, cfg.clipC)
    val j   = MODWT.defaultLevels(n, cfg.waveletOrder, cfg.maxLevels)
    val dec = MODWT.transform(pre, j, cfg.waveletOrder)
    val l1  = 2 * cfg.waveletOrder

    // Robust unbiased wavelet variance per level; boundary coefficients
    // excluded up to 3N/4 (deep levels have L_j − 1 ≥ N, see DESIGN.md §5).
    val variances = (1 to j).map { lvl =>
      val from = math.min(MODWT.filterWidth(l1, lvl) - 1, 3 * n / 4)
      if (cfg.useRobustVariance) RobustStats.biweightMidvariance(dec.w(lvl - 1), from)
      else RobustStats.variance(dec.w(lvl - 1).drop(from))
    }
    val totalVar = variances.sum

    // Process levels in decreasing variance order (output most significant
    // periods first), skipping negligible-energy levels.
    val order = (1 to j).sortBy(lvl => -variances(lvl - 1))
    val levelResults = scala.collection.mutable.ArrayBuffer.empty[LevelResult]
    val found        = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)] // (period, levelVar)

    for (lvl <- order) {
      val v = variances(lvl - 1)
      if (totalVar > 0 && v < cfg.minVarianceFraction * totalVar) {
        levelResults += LevelResult(lvl, v, 1.0, 0.0, 0)
      } else {
        val w  = RobustStats.robustStandardize(dec.w(lvl - 1))
        val x  = new Array[Double](2 * n) // zero-pad to N' = 2N
        System.arraycopy(w, 0, x, 0, n)
        val nP = 2 * n
        val band = (nP / (1 << (lvl + 1)), nP / (1 << lvl))
        val pHalf =
          if (cfg.useHuberPeriodogram)
            HuberPeriodogram.spliced(x, band, cfg.huberZeta, cfg.admmIter)
          else
            HuberPeriodogram.vanilla(x).take(n + 1)
        // Significance from EVEN ordinates only: X_padded(2k) equals the
        // unpadded DFT, so those ordinates are i.i.d. under the white-noise
        // null (odd, interpolated ordinates are correlated with their
        // neighbours). Level-j coefficients are band-passed, so the test is
        // restricted to the in-band ordinates whenever enough exist —
        // including the (near-zero) out-of-band ordinates would inflate the
        // g-statistic far above the null. Deep levels have too few in-band
        // ordinates for any power (e.g. 4 at T≈1440, N=7200), so there the
        // full even range is used and the strengthened ACF validation
        // (≥3 persistent peaks) carries the false-positive control — this
        // matches the paper's observed behaviour (Fig. 5 shows out-of-band
        // candidates and p-values needing ACF veto). The period candidate
        // always uses the full-resolution, full-range argmax.
        val even   = Array.tabulate(n / 2 + 1)(i => pHalf(2 * i))
        val bandLo = math.max(1, (band._1 + 1) / 2)
        val bandHi = math.min(n / 2, band._2 / 2)
        // Deep levels hold too few in-band ordinates for any test power
        // (4 at T≈1440, N=7200), so the window is widened to ≥16 ordinates
        // into the adjacent stopband — attenuated for signal *and* noise,
        // so the null is only mildly distorted, unlike a full-range test
        // whose N vastly overstates the effective ordinate count of a
        // band-passed level.
        val minOrd = 16
        var lo = bandLo
        var hi = bandHi
        if (hi - lo + 1 < minOrd) {
          lo = math.max(1, hi - minOrd + 1)
          if (hi - lo + 1 < minOrd) hi = math.min(n / 2, lo + minOrd - 1)
        }
        val fisher = FisherTest.test(even, kFrom = lo, kTo = hi)
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
          val candPeriod = nP.toDouble / kMax
          val acf = HuberACF.fromPeriodogram(pHalf)
          val fin = HuberACF.validate(acf, kMax, nP, cfg.acfMinHeight)
          fin.foreach(p => found += ((p, v)))
          levelResults += LevelResult(lvl, v, fisher.pValue, candPeriod, fin.getOrElse(0))
        }
      }
    }

    // Dedupe near-equal periods across levels (5% tolerance), keeping the
    // detection from the highest-variance level; preserve variance order.
    val periods = scala.collection.mutable.ArrayBuffer.empty[Int]
    found.sortBy(-_._2).foreach { case (p, _) =>
      val dup = periods.exists(q => math.abs(q - p) <= math.max(1.0, 0.05 * math.min(q, p)))
      if (!dup) periods += p
    }
    Result(periods.toSeq, levelResults.sortBy(_.level).toSeq)
  }
}
