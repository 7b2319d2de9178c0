package repro.core

/** Robust statistics substrate: median, MAD, biweight midvariance (Eq. 4),
  * and the Huber loss that defines the Huber-periodogram.
  */
object RobustStats {

  /** Scale factor that makes the MAD a consistent σ estimator under
    * Gaussian data (1 / Φ⁻¹(3/4)).
    */
  val MadToSigma: Double = 1.4826022185056018

  def median(x: Array[Double]): Double = {
    require(x.nonEmpty, "median of empty array")
    val s = x.clone()
    java.util.Arrays.sort(s)
    val n = s.length
    if (n % 2 == 1) s(n / 2) else 0.5 * (s(n / 2 - 1) + s(n / 2))
  }

  /** Median absolute deviation (raw; multiply by [[MadToSigma]] for σ̂). */
  def mad(x: Array[Double]): Double = {
    val m = median(x)
    median(x.map(v => math.abs(v - m)))
  }

  def mean(x: Array[Double]): Double = x.sum / x.length

  def variance(x: Array[Double]): Double = {
    val m = mean(x)
    x.map(v => (v - m) * (v - m)).sum / x.length
  }

  /** Biweight midvariance of `x(from until x.length)` — the robust unbiased
    * wavelet variance of Eq. 4, where `from = L_j − 1` excludes the MODWT
    * boundary coefficients.
    *
    *   ν² = M · Σ (x−Med)² (1−u²)⁴ I(|u|<1) / [Σ (1−u²)(1−5u²) I(|u|<1)]²,
    *   u  = (x − Med) / (9·MAD).
    *
    * Follows the biweight-midvariance literature (Wilcox) in using the
    * *median* absolute deviation (see DESIGN.md §5 on the paper's "mean"
    * wording). Falls back to the sample variance when MAD = 0.
    */
  def biweightMidvariance(x: Array[Double], from: Int = 0): Double = {
    val slice = x.slice(math.max(0, from), x.length)
    if (slice.length < 2) return 0.0
    val med = median(slice)
    val m   = mad(slice)
    if (m == 0.0) return variance(slice)
    var num = 0.0
    var den = 0.0
    var i   = 0
    while (i < slice.length) {
      val d = slice(i) - med
      val u = d / (9.0 * m)
      if (math.abs(u) < 1.0) {
        val one = 1.0 - u * u
        num += d * d * one * one * one * one
        den += one * (1.0 - 5.0 * u * u)
      }
      i += 1
    }
    if (den == 0.0) 0.0 else slice.length * num / (den * den)
  }

  /** Huber loss γ_ζ (Eq. 7). */
  def huberLoss(x: Double, zeta: Double): Double =
    if (math.abs(x) <= zeta) 0.5 * x * x else zeta * math.abs(x) - 0.5 * zeta * zeta

  /** Standardize by median/MAD (σ-consistent); if MAD is zero, fall back to
    * mean/σ; a constant series maps to zeros.
    */
  def robustStandardize(x: Array[Double]): Array[Double] = {
    val med = median(x)
    val s   = mad(x) * MadToSigma
    val sc  = if (s > 0) s else math.sqrt(variance(x))
    if (sc == 0.0) Array.fill(x.length)(0.0)
    else x.map(v => (v - med) / sc)
  }
}
