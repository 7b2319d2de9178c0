package repro.core

/** Periodograms: the vanilla FFT periodogram (Eq. 5) and the robust
  * Huber M-periodogram (Eq. 6–7) fitted per frequency by IRLS.
  *
  * For level-j data the exact M-estimate is only computed on the octave
  * band [N'/2^{j+1}, N'/2^j] and spliced with the vanilla periodogram
  * elsewhere — the paper's own speed-up; the splice is scale-consistent
  * because the sum-of-squares M-periodogram equals the vanilla
  * periodogram exactly.
  */
object HuberPeriodogram {

  /** Vanilla periodogram P_k = |X_k|²/n on the half range k = 0..⌊n/2⌋
    * (a real series' periodogram is even, P_{n−k} = P_k).
    */
  def vanilla(x: Array[Double]): Array[Double] = {
    val n    = x.length
    val spec = FFT.forward(x)
    Array.tabulate(n / 2 + 1) { k =>
      val re = spec(2 * k); val im = spec(2 * k + 1)
      (re * re + im * im) / n
    }
  }

  /** Huber M-periodogram at a single frequency index k of an n-point
    * series: P^M_k = (n/4)·‖β̂‖² with
    * β̂ = argmin Σ_t γ_ζ(φ_t β − x_t), φ_t = [cos(2πkt/n), sin(2πkt/n)].
    *
    * Iteratively reweighted least squares (Holland & Welsch 1977): start
    * from the least-squares fit, then repeat the weighted 2×2 least-squares
    * solve with weights w_t = min(1, ζ/|r_t|) until ‖Δβ‖ < 1e-8 or
    * `maxIter` solves have run. The paper uses ADMM for the same convex
    * problem (DESIGN.md §5).
    */
  def huberAtK(x: Array[Double], k: Int, zeta: Double, maxIter: Int = 50): Double = {
    val n = x.length
    if (k == 0 || 2 * k == n) { // sine regressor ≡ 0: plain DFT ordinate
      var s = 0.0; var t = 0
      while (t < n) { s += (if (k == 0 || t % 2 == 0) x(t) else -x(t)); t += 1 }
      return s * s / n
    }
    val cos = new Array[Double](n)
    val sin = new Array[Double](n)
    // Incremental rotation instead of n trig calls; renormalized per step
    // is unnecessary at n ≲ 10^4.
    val wRe = math.cos(2 * math.Pi * k / n)
    val wIm = math.sin(2 * math.Pi * k / n)
    var cRe = 1.0; var cIm = 0.0
    var t = 0
    while (t < n) {
      cos(t) = cRe; sin(t) = cIm
      val nRe = cRe * wRe - cIm * wIm
      cIm = cRe * wIm + cIm * wRe
      cRe = nRe
      t += 1
    }
    // Least-squares start: for 0 < k < n/2, φᵀφ = (n/2)·I exactly.
    var b1 = 0.0; var b2 = 0.0
    t = 0
    while (t < n) { b1 += cos(t) * x(t); b2 += sin(t) * x(t); t += 1 }
    b1 *= 2.0 / n; b2 *= 2.0 / n

    var it = 0
    var moved = Double.MaxValue
    while (it < maxIter && moved >= 1e-8) {
      // Weighted normal equations (φᵀWφ) β = φᵀWx at the current residuals.
      var scc = 0.0; var scs = 0.0; var sss = 0.0; var rx1 = 0.0; var rx2 = 0.0
      t = 0
      while (t < n) {
        val r  = math.abs(cos(t) * b1 + sin(t) * b2 - x(t))
        val w  = if (r <= zeta) 1.0 else zeta / r
        val wc = w * cos(t); val ws = w * sin(t)
        scc += wc * cos(t); scs += wc * sin(t); sss += ws * sin(t)
        rx1 += wc * x(t); rx2 += ws * x(t)
        t += 1
      }
      val det = scc * sss - scs * scs
      val nb1 = (sss * rx1 - scs * rx2) / det
      val nb2 = (scc * rx2 - scs * rx1) / det
      moved = math.hypot(nb1 - b1, nb2 - b2)
      b1 = nb1; b2 = nb2
      it += 1
    }
    n / 4.0 * (b1 * b1 + b2 * b2)
  }

  /** Half-range periodogram (indices 0..n/2) with the exact Huber
    * M-estimate on `exactBand` (inclusive index range) and the vanilla
    * periodogram elsewhere. `maxIter` caps the iterations of each Huber
    * fit.
    */
  def spliced(x: Array[Double], exactBand: (Int, Int), zeta: Double,
              maxIter: Int = 50): Array[Double] = {
    val n    = x.length
    val half = n / 2
    val out  = vanilla(x)
    val lo   = math.max(1, exactBand._1)
    val hi   = math.min(half, exactBand._2)
    var k = lo
    while (k <= hi) {
      out(k) = huberAtK(x, k, zeta, maxIter = maxIter)
      k += 1
    }
    out
  }

  /** Exact Huber M-periodogram at every index 0..n/2 (used by ablations). */
  def huberFull(x: Array[Double], zeta: Double, maxIter: Int = 50): Array[Double] =
    spliced(x, (1, x.length / 2), zeta, maxIter)
}
