package repro.wavelet

import org.scalatest.funsuite.AnyFunSuite

class DaubechiesSpec extends AnyFunSuite {

  private val sqrt2  = math.sqrt(2.0)
  private val orders = Seq(1, 2, 3, 4, 10)

  test("db1 is the Haar filter") {
    val g = Daubechies.scaling(1)
    assert(g.length == 2)
    g.foreach(v => assert(math.abs(v - 1 / sqrt2) < 1e-12))
  }

  // Independent reference for the pinned db2–db4 taps: Daubechies (1992),
  // "Ten Lectures on Wavelets", Table 6.1, normalised so that Σg = √2.
  private val published: Map[Int, Array[Double]] = Map(
    2 -> Array(.4829629131445341, .8365163037378077, .2241438680420134,
               -.1294095225512603),
    3 -> Array(.3326705529500825, .8068915093110924, .4598775021184914,
               -.1350110200102546, -.0854412738820267, .0352262918857095),
    4 -> Array(.2303778133088964, .7148465705529154, .6308807679298587,
               -.0279837694168599, -.1870348117190931, .0308413818355607,
               .0328830116668852, -.0105974017850690),
  )

  for (p <- 2 to 4) {
    test(s"generated db$p matches the published table") {
      val g   = Daubechies.scaling(p)
      val ref = published(p)
      assert(g.length == ref.length)
      ref.indices.foreach { i =>
        assert(math.abs(g(i) - ref(i)) < 1e-8,
          s"tap $i: scaling ${g(i)} vs published ${ref(i)}")
      }
    }
  }

  for (p <- orders) {
    test(s"db$p filter identities: Σg=√2, ‖g‖=1, even-shift orthogonality") {
      val g = Daubechies.scaling(p)
      assert(g.length == 2 * p)
      assert(math.abs(g.sum - sqrt2) < 1e-9, s"sum ${g.sum}")
      assert(math.abs(g.map(v => v * v).sum - 1.0) < 1e-9)
      // Σ g_l g_{l+2m} = 0 for m ≠ 0.
      for (m <- 1 until p) {
        val dot = (0 until 2 * p - 2 * m).map(l => g(l) * g(l + 2 * m)).sum
        assert(math.abs(dot) < 1e-8, s"shift $m dot $dot")
      }
    }

    test(s"db$p wavelet filter: zero sum and quadrature mirror relation") {
      val h = Daubechies.wavelet(p)
      val g = Daubechies.scaling(p)
      assert(math.abs(h.sum) < 1e-8)
      assert(math.abs(h.map(v => v * v).sum - 1.0) < 1e-9)
      // h ⊥ g (orthonormality of the two-channel bank).
      val dot = h.zip(g).map { case (a, b) => a * b }.sum
      assert(math.abs(dot) < 1e-8)
    }
  }

  for (p <- orders.filter(_ >= 2)) {
    test(s"db$p wavelet has $p vanishing moments") {
      val h = Daubechies.wavelet(p)
      for (m <- 0 until p) {
        val terms = h.indices.map(l => h(l) * math.pow(l.toDouble, m.toDouble))
        // Relative to Σ|h_l|·l^m: db10's 9th moment sums terms up to
        // 19^9 ≈ 3e11, so its rounding error alone is ~1e-4 absolute.
        val rel = math.abs(terms.sum) / terms.map(math.abs).sum
        assert(rel < 1e-9, s"moment $m = ${terms.sum} (relative $rel)")
      }
    }
  }

  test("db10 (the RobustPeriod default) generates without error, 20 taps") {
    val g = Daubechies.scaling(10)
    assert(g.length == 20)
    assert(g(0) > 0) // sign convention pinned
    assert(math.abs(g(0)) >= math.abs(g(19)))
  }

  test("unsupported order rejected") {
    for (p <- Seq(5, 25)) {
      val e = intercept[IllegalArgumentException] { Daubechies.scaling(p) }
      assert(e.getMessage.contains("{1, 2, 3, 4, 10}"), e.getMessage)
    }
  }
}
