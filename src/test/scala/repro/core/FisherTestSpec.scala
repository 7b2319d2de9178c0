package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class FisherTestSpec extends AnyFunSuite {

  test("p-value bounds: g=0 → 1, g=1 → 0") {
    assert(FisherTest.pValue(0.0, 100) == 1.0)
    assert(FisherTest.pValue(1.0, 100) == 0.0)
  }

  for (n <- Seq(20, 100, 500)) {
    test(s"p-value is monotone decreasing in g (N=$n)") {
      val ps = (1 to 30).map(i => FisherTest.pValue(i / 31.0, n))
      ps.sliding(2).foreach(w => assert(w(1) <= w(0) + 1e-12))
    }
  }

  test("exact small case N=2: P(g ≥ g0) = 2(1 − g0) for g0 in [1/2, 1]") {
    // With two ordinates the alternating series is exact and simple.
    for (g0 <- Seq(0.55, 0.7, 0.9)) {
      assert(math.abs(FisherTest.pValue(g0, 2) - 2 * (1 - g0)) < 1e-10)
    }
  }

  test("exact small case N=3, g0 > 1/2: P = 3(1−g0)²") {
    for (g0 <- Seq(0.6, 0.75, 0.95)) {
      assert(math.abs(FisherTest.pValue(g0, 3) - 3 * (1 - g0) * (1 - g0)) < 1e-10)
    }
  }

  test("white-noise null: rejection rate at α=0.05 is near 5%") {
    val rnd = new Random(12)
    var rejects = 0
    val trials = 400
    (0 until trials).foreach { _ =>
      val x = Array.fill(256)(rnd.nextGaussian())
      val p = HuberPeriodogram.vanilla(x)
      if (FisherTest.test(p).pValue < 0.05) rejects += 1
    }
    val rate = rejects.toDouble / trials
    assert(rate > 0.01 && rate < 0.11, s"rejection rate $rate")
  }

  test("strong sine gives an astronomically small p-value at the right bin") {
    val n = 512
    val rnd = new Random(13)
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 20 * t / n) + 0.2 * rnd.nextGaussian())
    val res = FisherTest.test(HuberPeriodogram.vanilla(x))
    assert(res.kMax == 20)
    assert(res.pValue < 1e-50, s"p ${res.pValue}")
  }

  test("tiny p-values representable without underflow to exactly 0 for moderate g") {
    val p = FisherTest.pValue(0.5, 500)
    assert(p > 0 && p < 1e-100, s"p $p")
  }

  for (alpha <- Seq(0.05, 0.01, 0.001); n <- Seq(50, 250, 1000)) {
    test(s"criticalG inverts pValue (α=$alpha, N=$n)") {
      val g = FisherTest.criticalG(alpha, n)
      assert(math.abs(FisherTest.pValue(g, n) - alpha) < alpha * 0.02)
    }
  }

  test("test() ignores ordinates outside [kFrom, kTo]") {
    val p = Array(100.0, 1.0, 1.0, 50.0, 1.0, 1.0, 1.0)
    val res = FisherTest.test(p, kFrom = 1, kTo = 2) // excludes DC and the 50 spike
    assert(res.kMax <= 2 && res.g == 0.5)
  }

  test("all-zero periodogram → p-value 1") {
    assert(FisherTest.test(Array.fill(10)(0.0)).pValue == 1.0)
  }

  test("lgamma matches known values") {
    assert(math.abs(FisherTest.lgamma(1.0)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(2.0)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(5.0) - math.log(24.0)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(101.0) - (1 to 100).map(i => math.log(i.toDouble)).sum) < 1e-8)
  }
}
