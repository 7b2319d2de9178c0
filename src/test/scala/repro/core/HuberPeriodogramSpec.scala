package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class HuberPeriodogramSpec extends AnyFunSuite {

  test("vanilla periodogram peaks exactly at the sine frequency bin") {
    val n = 400
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 8 * t / n))
    val p = HuberPeriodogram.vanilla(x)
    assert(p.length == n / 2 + 1)
    val kb = (1 to n / 2).maxBy(p(_))
    assert(kb == 8)
    assert(math.abs(p(8) - n / 4.0) < 1e-6) // |X|²/n = (n/2)²/n
  }

  test("vanilla periodogram of zeros is zero") {
    assert(HuberPeriodogram.vanilla(Array.fill(64)(0.0)).forall(_ == 0.0))
  }

  for (k <- Seq(3, 10, 31, 77)) {
    test(s"Huber with huge ζ equals least squares equals vanilla (k=$k)") {
      val rnd = new Random(k)
      val n = 256
      val x = Array.fill(n)(rnd.nextGaussian())
      val pv = HuberPeriodogram.vanilla(x)(k)
      val ph = HuberPeriodogram.huberAtK(x, k, zeta = 1e9, maxIter = 200)
      assert(math.abs(ph - pv) < 1e-6 * math.max(1.0, pv), s"$ph vs $pv")
    }
  }

  test("Huber-periodogram of clean sine matches vanilla at the peak") {
    val n = 512
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 16 * t / n))
    val pv = HuberPeriodogram.vanilla(x)(16)
    val ph = HuberPeriodogram.huberAtK(x, 16, zeta = 1.345)
    // Clean data: all residuals inside ζ, so Huber ≈ LS.
    assert(math.abs(ph - pv) / pv < 0.05, s"$ph vs $pv")
  }

  test("Huber-periodogram resists outliers far better than vanilla") {
    val n = 512
    val clean = Array.tabulate(n)(t => math.sin(2 * math.Pi * 16 * t / n))
    val dirty = clean.clone()
    val rnd = new Random(3)
    (0 until 25).foreach(_ => dirty(rnd.nextInt(n)) += 20.0 * (if (rnd.nextBoolean()) 1 else -1))
    val peakClean = HuberPeriodogram.vanilla(clean)(16)
    // Vanilla off-peak floor rises sharply with outliers; Huber's stays low.
    def offPeakMax(p: Int => Double): Double =
      (1 to n / 2).filter(k => math.abs(k - 16) > 3).map(p).max
    val van = HuberPeriodogram.vanilla(dirty)
    val vanOff = offPeakMax(van(_))
    val hubOff = offPeakMax(k => HuberPeriodogram.huberAtK(dirty, k, 1.345))
    assert(hubOff < vanOff, s"huber off-peak $hubOff vs vanilla $vanOff")
    // And the Huber peak stays within 40% of the clean peak.
    val hubPeak = HuberPeriodogram.huberAtK(dirty, 16, 1.345)
    assert(math.abs(hubPeak - peakClean) / peakClean < 0.4, s"$hubPeak vs $peakClean")
  }

  test("degenerate frequencies (k=0, Nyquist) fall back without NaN") {
    val rnd = new Random(5)
    val x = Array.fill(64)(rnd.nextGaussian())
    val p0 = HuberPeriodogram.huberAtK(x, 0, 1.345)
    val pN = HuberPeriodogram.huberAtK(x, 32, 1.345)
    assert(!p0.isNaN && !pN.isNaN && p0 >= 0 && pN >= 0)
  }

  test("spliced equals vanilla outside the exact band") {
    val rnd = new Random(6)
    val n = 200
    val x = Array.fill(n)(rnd.nextGaussian())
    val sp = HuberPeriodogram.spliced(x, (40, 60), zeta = 1.345)
    val vn = HuberPeriodogram.vanilla(x)
    (1 until 40).foreach(k => assert(sp(k) == vn(k)))
    (61 to 100).foreach(k => assert(sp(k) == vn(k)))
    // Inside the band values differ in general (robust estimate).
    assert((40 to 60).exists(k => sp(k) != vn(k)))
  }

  test("huberFull covers every index up to n/2") {
    val rnd = new Random(7)
    val x = Array.fill(100)(rnd.nextGaussian())
    val p = HuberPeriodogram.huberFull(x, 1.345)
    assert(p.length == 51)
    assert(p.forall(v => v >= 0 && !v.isNaN))
  }

  test("Huber fit converges: more iterations do not change the answer") {
    val rnd = new Random(8)
    val n = 300
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 10 * t / n) + 0.3 * rnd.nextGaussian())
    x(13) += 15.0
    val p50  = HuberPeriodogram.huberAtK(x, 10, 1.345, maxIter = 50)
    val p500 = HuberPeriodogram.huberAtK(x, 10, 1.345, maxIter = 500)
    assert(math.abs(p50 - p500) / p500 < 1e-3, s"$p50 vs $p500")
  }

  test("Huber fit matches a grid-search minimizer of the Huber objective") {
    val rnd = new Random(9)
    val n = 128
    val x = Array.tabulate(n)(t => 0.8 * math.cos(2 * math.Pi * 5 * t / n) + 0.2 * rnd.nextGaussian())
    x(7) += 10; x(90) -= 12
    // The shape RobustPeriod passes: zero-padded to 2n, outliers in the data
    // half, the same frequency at index 2k.
    val padded = x ++ Array.fill(n)(0.0)
    for ((y, k) <- Seq((x, 5), (padded, 10))) {
      val m = y.length; val zeta = 1.0
      def obj(b1: Double, b2: Double): Double = {
        (0 until m).map { t =>
          val r = b1 * math.cos(2 * math.Pi * k * t / m) + b2 * math.sin(2 * math.Pi * k * t / m) - y(t)
          RobustStats.huberLoss(r, zeta)
        }.sum
      }
      // Coarse-to-fine grid search as an independent oracle.
      var best = (0.0, 0.0); var bestV = Double.MaxValue
      var step = 0.5
      var c1 = 0.0; var c2 = 0.0
      (0 until 4).foreach { _ =>
        for (d1 <- -4 to 4; d2 <- -4 to 4) {
          val v = obj(c1 + d1 * step, c2 + d2 * step)
          if (v < bestV) { bestV = v; best = (c1 + d1 * step, c2 + d2 * step) }
        }
        c1 = best._1; c2 = best._2; step /= 4
      }
      val pOracle = m / 4.0 * (best._1 * best._1 + best._2 * best._2)
      val pHuber  = HuberPeriodogram.huberAtK(y, k, zeta, maxIter = 300)
      assert(math.abs(pHuber - pOracle) / math.max(pOracle, 1e-9) < 0.05,
        s"n=$m, k=$k: Huber $pHuber vs grid $pOracle")
    }
  }

  /** The IRLS fit over all n samples, as `huberAtK` ran it before the fold:
    * the oracle for the folded kernel.
    */
  private def fullLengthHuber(x: Array[Double], k: Int, zeta: Double, maxIter: Int): Double = {
    val n = x.length
    val cos = new Array[Double](n)
    val sin = new Array[Double](n)
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
    var b1 = 0.0; var b2 = 0.0
    t = 0
    while (t < n) { b1 += cos(t) * x(t); b2 += sin(t) * x(t); t += 1 }
    b1 *= 2.0 / n; b2 *= 2.0 / n
    var it = 0
    var moved = Double.MaxValue
    while (it < maxIter && moved >= 1e-8) {
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

  test("folded Huber fit matches the full-length IRLS") {
    val rnd = new Random(10)
    val n = 300
    val y = Array.tabulate(n)(t => math.sin(2 * math.Pi * 12 * t / n) + 0.5 * rnd.nextGaussian())
    (0 until 12).foreach(_ => y(rnd.nextInt(n)) += 15.0 * (if (rnd.nextBoolean()) 1 else -1))
    val padded = y ++ Array.fill(n)(0.0) // the N' = 2N shape RobustPeriod passes
    for (x <- Seq(padded, y); k <- Seq(1, 2, 11, 12, 24, 25, 73, 148, 149)) {
      val folded = HuberPeriodogram.huberAtK(x, k, 1.345)
      val full   = fullLengthHuber(x, k, 1.345, maxIter = 50)
      assert(math.abs(folded - full) <= 1e-9 * full, s"n=${x.length}, k=$k: $folded vs $full")
    }
  }

  test("odd-length input is rejected with the even-length requirement") {
    val e = intercept[IllegalArgumentException](HuberPeriodogram.huberAtK(Array.fill(33)(1.0), 5, 1.345))
    assert(e.getMessage.contains("even-length"), e.getMessage)
  }

  test("even then odd band ordinates through fitBand equal spliced bit for bit") {
    val rnd = new Random(11)
    val n = 250
    val y = Array.tabulate(n)(t => math.cos(2 * math.Pi * 9 * t / n) + 0.3 * rnd.nextGaussian())
    y(17) += 12.0; y(140) -= 9.0
    val x = y ++ Array.fill(n)(0.0)
    val band = (31, 62) // level 3 of N' = 500: an odd lower edge
    val sp = HuberPeriodogram.spliced(x, band, 1.345)
    val vn = HuberPeriodogram.vanilla(x)
    val p  = HuberPeriodogram.vanilla(x)
    HuberPeriodogram.fitBand(x, p, band, parity = 0, 1.345, 50)
    // After the even pass the even ordinates (all Fisher reads) are final
    // and the odd ones are still vanilla.
    (0 to n).foreach(k => assert(p(k) == (if (k % 2 == 0) sp(k) else vn(k)), s"k=$k"))
    HuberPeriodogram.fitBand(x, p, band, parity = 1, 1.345, 50)
    assert(p.sameElements(sp))
    assert((31 to 62).forall(k => sp(k) != vn(k)))
  }
}
