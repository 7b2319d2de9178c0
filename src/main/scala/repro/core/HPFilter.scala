package repro.core

/** Hodrick–Prescott trend filter (Eq. 2):
  *
  *   τ̂ = argmin_τ ½ Σ (y_t − τ_t)² + λ Σ (τ_{t−1} − 2τ_t + τ_{t+1})²
  *
  * First-order condition: (I + 2λ DᵀD) τ = y with D the (N−2)×N second
  * difference operator — a pentadiagonal SPD system solved by Cholesky in
  * O(N).
  */
object HPFilter {

  /** Length-adaptive smoothing parameter. The HP trend gain at period T is
    * 1/(1 + 32λ sin⁴(π/T)), so a fixed λ silently absorbs long periodic
    * components into the "trend" (λ=1e5 already swallows half of a T≈80
    * cycle — fatal for daily periods in minutely data, cf. Table 4's
    * T=720/1440). This λ puts the 50% cutoff at period N/3, safely above
    * the detectable range (T ≤ N/4): λ = 1/(32·sin⁴(3π/N)).
    */
  def autoLambda(n: Int): Double = {
    val s = math.sin(math.min(math.Pi / 4, 3.0 * math.Pi / math.max(n, 12)))
    1.0 / (32.0 * math.pow(s, 4.0))
  }

  /** Resolve a λ parameter: positive values pass through, non-positive
    * selects [[autoLambda]] for the series length.
    */
  def resolveLambda(lambda: Double, n: Int): Double =
    if (lambda > 0) lambda else autoLambda(n)

  /** Estimated trend τ̂ of `y` for smoothing parameter λ (≤0 = auto). */
  def trend(y: Array[Double], lambda: Double = -1): Array[Double] = {
    val n = y.length
    if (n < 4) return y.clone()
    val lam = resolveLambda(lambda, n)
    // a0(i) = A(i, i), a1(i) = A(i, i+1), a2(i) = A(i, i+2).
    val a0 = Array.fill(n)(1.0)
    val a1 = new Array[Double](n)
    val a2 = new Array[Double](n)
    // Accumulate 2λ·DᵀD from each second-difference row r with stencil
    // (+1, −2, +1) at columns (r, r+1, r+2).
    val w = 2.0 * lam
    var r = 0
    while (r < n - 2) {
      a0(r)     += w * 1.0
      a0(r + 1) += w * 4.0
      a0(r + 2) += w * 1.0
      a1(r)     += w * -2.0
      a1(r + 1) += w * -2.0
      a2(r)     += w * 1.0
      r += 1
    }
    solvePentadiagonal(a0, a1, a2, y)
  }

  /** Solve A x = b for a symmetric positive-definite pentadiagonal A given
    * by its diagonals a0(i) = A(i, i), a1(i) = A(i, i+1), a2(i) = A(i, i+2):
    * Cholesky A = L Lᵀ, then forward and back substitution.
    */
  private[core] def solvePentadiagonal(a0: Array[Double], a1: Array[Double],
                                       a2: Array[Double], b: Array[Double]): Array[Double] = {
    val n = b.length
    // l0(j) = L(j, j), l1(j) = L(j+1, j), l2(j) = L(j+2, j).
    val l0 = new Array[Double](n)
    val l1 = new Array[Double](n)
    val l2 = new Array[Double](n)
    var j = 0
    while (j < n) {
      var s = a0(j)
      if (j >= 2) s -= l2(j - 2) * l2(j - 2)
      if (j >= 1) s -= l1(j - 1) * l1(j - 1)
      require(s > 0, s"matrix not SPD at column $j (pivot $s)")
      l0(j) = math.sqrt(s)
      if (j + 1 < n) l1(j) = (if (j >= 1) a1(j) - l2(j - 1) * l1(j - 1) else a1(j)) / l0(j)
      if (j + 2 < n) l2(j) = a2(j) / l0(j)
      j += 1
    }
    val x = new Array[Double](n)
    var i = 0
    while (i < n) { // L y = b, y kept in x
      var s = b(i)
      if (i >= 1) s -= l1(i - 1) * x(i - 1)
      if (i >= 2) s -= l2(i - 2) * x(i - 2)
      x(i) = s / l0(i)
      i += 1
    }
    i = n - 1
    while (i >= 0) { // Lᵀ x = y, in place
      var s = x(i)
      if (i + 1 < n) s -= l1(i) * x(i + 1)
      if (i + 2 < n) s -= l2(i) * x(i + 2)
      x(i) = s / l0(i)
      i -= 1
    }
    x
  }

  /** Detrended series y − τ̂ (λ ≤ 0 = auto). */
  def detrend(y: Array[Double], lambda: Double = -1): Array[Double] = {
    val t = trend(y, lambda)
    Array.tabulate(y.length)(i => y(i) - t(i))
  }
}
