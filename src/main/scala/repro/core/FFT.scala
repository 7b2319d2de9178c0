package repro.core

import org.jtransforms.fft.DoubleFFT_1D

/** FFT substrate: thin, convention-pinning wrapper over JTransforms
  * (shipped in /opt/spark/jars).
  *
  * Conventions (standard DSP):
  *   forward:  X_k = Σ_t x_t e^{-i 2π k t / n}   (no scaling)
  *   inverse:  x_t = (1/n) Σ_k X_k e^{+i 2π k t / n}
  *
  * Arbitrary lengths are supported (JTransforms uses mixed-radix +
  * Bluestein internally); the test suite cross-checks against a naive
  * O(n²) DFT for prime, odd and power-of-two lengths.
  */
object FFT {

  /** Forward DFT of a real signal. Returns interleaved complex
    * [re0, im0, re1, im1, ...] of length 2n.
    */
  def forward(x: Array[Double]): Array[Double] = {
    val n = x.length
    val a = new Array[Double](2 * n)
    var i = 0
    while (i < n) { a(2 * i) = x(i); i += 1 }
    new DoubleFFT_1D(n).complexForward(a)
    a
  }

  /** Inverse DFT of a real, even spectrum given by its half range
    * P_0..P_m: x_t = (1/n) Σ_k P_k e^{+i 2π k t / n} with n = 2m and
    * P_{n−k} = P_k, so x is real. One JTransforms `realInverse` on the
    * packed layout [P_0, P_m, P_1, 0, P_2, 0, ..., P_{m−1}, 0].
    */
  def inverseRealEven(half: Array[Double]): Array[Double] = {
    val m = half.length - 1
    val a = new Array[Double](2 * m)
    var k = 0
    while (k < m) { a(2 * k) = half(k); k += 1 }
    a(1) = half(m)
    new DoubleFFT_1D(2 * m).realInverse(a, true)
    a
  }

  /** Naive O(n²) DFT — test oracle only. */
  def naiveForward(x: Array[Double]): Array[Double] = {
    val n   = x.length
    val out = new Array[Double](2 * n)
    var k   = 0
    while (k < n) {
      var re = 0.0; var im = 0.0
      var t  = 0
      while (t < n) {
        val ang = -2 * math.Pi * k * t / n
        re += x(t) * math.cos(ang)
        im += x(t) * math.sin(ang)
        t += 1
      }
      out(2 * k) = re; out(2 * k + 1) = im
      k += 1
    }
    out
  }
}
