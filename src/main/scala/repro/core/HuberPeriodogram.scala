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
    * series, n even: P^M_k = (n/4)·‖β̂‖² with
    * β̂ = argmin Σ_t γ_ζ(φ_t β − x_t), φ_t = [cos(2πkt/n), sin(2πkt/n)].
    *
    * Iteratively reweighted least squares (Holland & Welsch 1977): start
    * from the least-squares fit, then repeat the weighted 2×2 least-squares
    * solve with weights w_t = min(1, ζ/|r_t|) until ‖Δβ‖ < 1e-8 or
    * `maxIter` solves have run. The paper uses ADMM for the same convex
    * problem (DESIGN.md §5).
    *
    * The fit is folded onto t < n/2: φ_{t+n/2} = (−1)^k·φ_t exactly, so
    * sample t + n/2 is a second observation (−1)^k·x_{t+n/2} of the same
    * regressor φ_t. Each IRLS step then sums (w_a + w_b)·φ_tφ_tᵀ and
    * φ_t·(w_a·x_t + w_b·(−1)^k·x_{t+n/2}) over half the samples. Hence the
    * even-length requirement; every caller passes the zero-padded N' = 2N.
    */
  def huberAtK(x: Array[Double], k: Int, zeta: Double, maxIter: Int = 50): Double = {
    val n = x.length
    require(n % 2 == 0, s"huberAtK needs an even-length series (n = $n)")
    if (k == 0 || 2 * k == n) { // sine regressor ≡ 0: plain DFT ordinate
      var s = 0.0; var t = 0
      while (t < n) { s += (if (k == 0 || t % 2 == 0) x(t) else -x(t)); t += 1 }
      return s * s / n
    }
    val m    = n / 2
    val sign = if (k % 2 == 0) 1.0 else -1.0
    val cos  = new Array[Double](m)
    val sin  = new Array[Double](m)
    // Incremental rotation instead of m trig calls.
    val wRe = math.cos(2 * math.Pi * k / n)
    val wIm = math.sin(2 * math.Pi * k / n)
    var cRe = 1.0; var cIm = 0.0
    var t = 0
    while (t < m) {
      cos(t) = cRe; sin(t) = cIm
      val nRe = cRe * wRe - cIm * wIm
      cIm = cRe * wIm + cIm * wRe
      cRe = nRe
      t += 1
    }
    // Least-squares start: for 0 < k < n/2, φᵀφ = (n/2)·I exactly.
    var b1 = 0.0; var b2 = 0.0
    t = 0
    while (t < m) {
      val xs = x(t) + sign * x(t + m)
      b1 += cos(t) * xs; b2 += sin(t) * xs
      t += 1
    }
    b1 *= 2.0 / n; b2 *= 2.0 / n

    var it = 0
    var moved = Double.MaxValue
    while (it < maxIter && moved >= 1e-8) {
      // Weighted normal equations (φᵀWφ) β = φᵀWx at the current residuals.
      var scc = 0.0; var scs = 0.0; var sss = 0.0; var rx1 = 0.0; var rx2 = 0.0
      t = 0
      while (t < m) {
        val xa = x(t); val xb = sign * x(t + m)
        val f  = cos(t) * b1 + sin(t) * b2
        val ra = math.abs(f - xa); val rb = math.abs(f - xb)
        val wa = if (ra <= zeta) 1.0 else zeta / ra
        val wb = if (rb <= zeta) 1.0 else zeta / rb
        val w  = wa + wb
        val wc = w * cos(t); val ws = w * sin(t)
        scc += wc * cos(t); scs += wc * sin(t); sss += ws * sin(t)
        val wx = wa * xa + wb * xb
        rx1 += cos(t) * wx; rx2 += sin(t) * wx
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

  /** Overwrites `p(k)` with the Huber M-estimate `huberAtK(x, k, …)` for
    * every k of `exactBand` (inclusive, clamped to 1..n/2) with
    * k ≡ `parity` (mod 2). Per-k fits are independent, so fitting the even
    * ordinates and the odd ones in two calls gives the same values as one
    * pass; `RobustPeriod.detect` fits the odd ones only when they are read.
    */
  private[core] def fitBand(x: Array[Double], p: Array[Double], exactBand: (Int, Int),
                            parity: Int, zeta: Double, maxIter: Int): Unit = {
    val lo = math.max(1, exactBand._1)
    val hi = math.min(x.length / 2, exactBand._2)
    var k  = if (lo % 2 == parity) lo else lo + 1
    while (k <= hi) {
      p(k) = huberAtK(x, k, zeta, maxIter = maxIter)
      k += 2
    }
  }

  /** Half-range periodogram (indices 0..n/2) of an even-length series with
    * the exact Huber M-estimate on `exactBand` (inclusive index range) and
    * the vanilla periodogram elsewhere. `maxIter` caps the iterations of
    * each Huber fit.
    */
  def spliced(x: Array[Double], exactBand: (Int, Int), zeta: Double,
              maxIter: Int = 50): Array[Double] = {
    val out = vanilla(x)
    fitBand(x, out, exactBand, parity = 0, zeta, maxIter)
    fitBand(x, out, exactBand, parity = 1, zeta, maxIter)
    out
  }

  /** Exact Huber M-periodogram at every index 0..n/2 (used by ablations). */
  def huberFull(x: Array[Double], zeta: Double, maxIter: Int = 50): Array[Double] =
    spliced(x, (1, x.length / 2), zeta, maxIter)
}
