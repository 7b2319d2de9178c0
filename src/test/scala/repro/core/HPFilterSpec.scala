package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class HPFilterSpec extends AnyFunSuite {

  test("recovers a pure linear trend almost exactly") {
    val y = Array.tabulate(500)(t => 0.5 * t + 3.0)
    val tr = HPFilter.trend(y)
    y.indices.foreach(i => assert(math.abs(tr(i) - y(i)) < 1e-6))
  }

  test("detrending a linear ramp leaves near-zero residuals") {
    val y = Array.tabulate(300)(t => -2.0 * t + 7.0)
    val d = HPFilter.detrend(y)
    assert(d.map(math.abs).max < 1e-6)
  }

  test("removes a slow quadratic trend from a fast sine") {
    val n = 1000
    val y = Array.tabulate(n)(t => 1e-4 * t * t + math.sin(2 * math.Pi * t / 20))
    val d = HPFilter.detrend(y, lambda = 1e5)
    // Residual should be essentially the sine: correlation with it high.
    val s = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 20))
    val corr = d.zip(s).map { case (a, b) => a * b }.sum /
      math.sqrt(d.map(v => v * v).sum * s.map(v => v * v).sum)
    assert(corr > 0.98, s"corr $corr")
  }

  test("trend of sine+triangle-trend tracks the triangle, not the sine") {
    val n = 800
    val tri = Array.tabulate(n) { t =>
      val p = t.toDouble / n
      10.0 * (if (p < 0.5) 2 * p else 2 - 2 * p)
    }
    val y = Array.tabulate(n)(t => tri(t) + math.sin(2 * math.Pi * t / 50))
    val tr = HPFilter.trend(y, 1e5)
    // Away from the kink the HP trend should be within 0.5 of the triangle.
    val errs = (50 until n - 50).filterNot(i => math.abs(i - n / 2) < 60)
      .map(i => math.abs(tr(i) - tri(i)))
    assert(errs.max < 0.6, s"max err ${errs.max}")
  }

  test("result insensitive to λ within 1e4..1e6 (DESIGN.md §5)") {
    val rnd = new Random(2)
    val n = 600
    val y = Array.tabulate(n)(t => 0.01 * t + math.sin(2 * math.Pi * t / 30) + 0.1 * rnd.nextGaussian())
    val d1 = HPFilter.detrend(y, 1e4)
    val d2 = HPFilter.detrend(y, 1e6)
    val diff = d1.zip(d2).map { case (a, b) => math.abs(a - b) }.max
    assert(diff < 0.5, s"λ sensitivity $diff")
  }

  /** Dense Gaussian elimination oracle. */
  private def denseSolve(a: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    val m = a.map(_.clone()); val x = b.clone()
    for (c <- 0 until n) {
      val piv = (c until n).maxBy(r => math.abs(m(r)(c)))
      val t = m(c); m(c) = m(piv); m(piv) = t
      val tb = x(c); x(c) = x(piv); x(piv) = tb
      for (r <- c + 1 until n) {
        val f = m(r)(c) / m(c)(c)
        for (cc <- c until n) m(r)(cc) -= f * m(c)(cc)
        x(r) -= f * x(c)
      }
    }
    val out = new Array[Double](n)
    for (i <- n - 1 to 0 by -1) {
      var s = x(i)
      for (j <- i + 1 until n) s -= m(i)(j) * out(j)
      out(i) = s / m(i)(i)
    }
    out
  }

  test("matches dense normal-equation solve on a small system") {
    val rnd = new Random(4)
    val n = 40
    val y = Array.fill(n)(rnd.nextGaussian())
    val lambda = 100.0
    // Dense (I + 2λ DᵀD) assembled explicitly.
    val a = Array.ofDim[Double](n, n)
    for (i <- 0 until n) a(i)(i) = 1.0
    for (r <- 0 until n - 2) {
      val cols = Seq((r, 1.0), (r + 1, -2.0), (r + 2, 1.0))
      for ((ci, cv) <- cols; (cj, cw) <- cols) a(ci)(cj) += 2 * lambda * cv * cw
    }
    val exp = denseSolve(a, y)
    val got = HPFilter.trend(y, lambda)
    got.indices.foreach(i => assert(math.abs(got(i) - exp(i)) < 1e-9))
  }

  for (n <- Seq(4, 10, 50, 200)) {
    test(s"pentadiagonal solve matches dense solve (n=$n)") {
      // Random diagonally dominant (hence SPD) symmetric pentadiagonal A.
      val rnd = new Random(n * 31 + 2)
      val a0 = Array.fill(n)(n + 2.0 + rnd.nextDouble())
      val a1 = Array.tabulate(n)(i => if (i + 1 < n) rnd.nextDouble() - 0.5 else 0.0)
      val a2 = Array.tabulate(n)(i => if (i + 2 < n) rnd.nextDouble() - 0.5 else 0.0)
      val dense = Array.ofDim[Double](n, n)
      for (i <- 0 until n) {
        dense(i)(i) = a0(i)
        if (i + 1 < n) { dense(i)(i + 1) = a1(i); dense(i + 1)(i) = a1(i) }
        if (i + 2 < n) { dense(i)(i + 2) = a2(i); dense(i + 2)(i) = a2(i) }
      }
      val b = Array.fill(n)(rnd.nextDouble() * 4 - 2)
      val got = HPFilter.solvePentadiagonal(a0, a1, a2, b)
      val exp = denseSolve(dense, b)
      got.indices.foreach(i => assert(math.abs(got(i) - exp(i)) < 1e-8,
        s"mismatch at $i: ${got(i)} vs ${exp(i)}"))
    }
  }

  test("pentadiagonal identity solve returns rhs") {
    val b = Array(1.0, 2.0, 3.0, 4.0, 5.0)
    val zeros = Array.fill(5)(0.0)
    assert(HPFilter.solvePentadiagonal(Array.fill(5)(1.0), zeros, zeros, b).toSeq == b.toSeq)
  }

  test("non-SPD pentadiagonal matrix rejected by the pivot check") {
    // A = [[1, 2], [2, −5]]: the second pivot is −5 − 2² < 0.
    intercept[IllegalArgumentException] {
      HPFilter.solvePentadiagonal(Array(1.0, -5.0), Array(2.0, 0.0), Array(0.0, 0.0), Array(1.0, 1.0))
    }
  }

  test("residual ‖Aτ − y‖ is tiny for the HP system (n=7200, auto λ)") {
    val n = 7200
    val rnd = new Random(9)
    var walk = 0.0
    val y = Array.tabulate(n) { t =>
      walk += 0.1 * rnd.nextGaussian()
      walk + math.sin(2 * math.Pi * t / 1440.0) + rnd.nextGaussian()
    }
    val tau = HPFilter.trend(y)
    val w = 2.0 * HPFilter.autoLambda(n)
    // A τ = τ + 2λ·Dᵀ(Dτ), applied through the difference stencil.
    val d = Array.tabulate(n - 2)(r => tau(r) - 2 * tau(r + 1) + tau(r + 2))
    val aTau = tau.clone()
    for (r <- 0 until n - 2) {
      aTau(r) += w * d(r); aTau(r + 1) -= 2 * w * d(r); aTau(r + 2) += w * d(r)
    }
    // Relative to the size of the terms that cancel in A τ.
    val scale = 16 * w * tau.map(math.abs).max + y.map(math.abs).max
    val worst = (0 until n).map(i => math.abs(aTau(i) - y(i))).max
    assert(worst / scale < 1e-14, s"relative residual ${worst / scale}")
  }

  test("auto λ keeps long periodic components out of the trend") {
    // A fixed λ=1e5 absorbs a T=720 cycle into the trend; auto λ must not.
    val n = 4320
    val y = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 720.0))
    val dAuto  = HPFilter.detrend(y) // auto λ
    val dFixed = HPFilter.detrend(y, 1e5)
    val energy = y.map(v => v * v).sum
    val eAuto  = dAuto.map(v => v * v).sum
    val eFixed = dFixed.map(v => v * v).sum
    assert(eAuto > 0.7 * energy, s"auto λ destroyed the cycle: ${eAuto / energy}")
    assert(eFixed < 0.1 * energy, s"fixed λ should have destroyed it: ${eFixed / energy}")
  }

  test("autoLambda cutoff sits at period N/3") {
    val n = 1200
    val lam = HPFilter.autoLambda(n)
    val gain = 1.0 / (1.0 + 32 * lam * math.pow(math.sin(math.Pi * 3 / n), 4))
    assert(math.abs(gain - 0.5) < 0.01, s"gain at N/3: $gain")
  }

  test("short series (< 4 points) returned unchanged") {
    assert(HPFilter.trend(Array(1.0, 2.0, 3.0)).toSeq == Seq(1.0, 2.0, 3.0))
  }

  test("λ → 0 gives trend == data; large λ gives near-linear trend") {
    val rnd = new Random(11)
    val y = Array.fill(200)(rnd.nextGaussian())
    val t0 = HPFilter.trend(y, 1e-9)
    y.indices.foreach(i => assert(math.abs(t0(i) - y(i)) < 1e-6))
    val tInf = HPFilter.trend(y, 1e12)
    // Second differences of the trend should vanish.
    val dd = (1 until 199).map(i => math.abs(tInf(i - 1) - 2 * tInf(i) + tInf(i + 1))).max
    assert(dd < 1e-6, s"second-difference $dd")
  }
}

class PreprocessSpec extends AnyFunSuite {

  test("output is clipped to ±c") {
    val rnd = new Random(3)
    val y = Array.fill(500)(rnd.nextGaussian()) ++ Array.fill(20)(500.0)
    val p = Preprocess(y, clipC = 3.0)
    assert(p.forall(v => math.abs(v) <= 3.0 + 1e-9))
  }

  test("sine survives preprocessing with shape intact") {
    val n = 600
    val y = Array.tabulate(n)(t => 5.0 + 0.02 * t + math.sin(2 * math.Pi * t / 40))
    val p = Preprocess(y)
    val s = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 40))
    val corr = p.zip(s).map { case (a, b) => a * b }.sum /
      math.sqrt(p.map(v => v * v).sum * s.map(v => v * v).sum)
    assert(corr > 0.95, s"corr $corr")
  }

  test("outliers are attenuated relative to raw scale") {
    val n = 500
    val y = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 25))
    y(100) = 100.0; y(300) = -80.0
    val p = Preprocess(y)
    assert(math.abs(p(100)) <= 3.0 + 1e-9 && math.abs(p(300)) <= 3.0 + 1e-9)
  }

  test("constant series maps to zeros without NaN") {
    val p = Preprocess(Array.fill(100)(42.0))
    assert(p.forall(v => !v.isNaN && math.abs(v) < 1e-9))
  }

  test("clip with huge c only standardizes: value ordering preserved") {
    val x = Array.tabulate(100)(i => math.sin(i * 0.2))
    val c = Preprocess.clip(x, 100.0)
    val orderX = x.zipWithIndex.sortBy(_._1).map(_._2).toSeq
    val orderC = c.zipWithIndex.sortBy(_._1).map(_._2).toSeq
    assert(orderX == orderC)
  }
}
