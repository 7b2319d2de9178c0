package repro.eval

/** Detection scoring (Sec. 4.2): tolerance matching with ±0% (exact) or
  * ±2% intervals around the ground truth, greedy 1-1 assignment, and
  * precision / recall / F1 aggregation.
  */
object Scoring {

  final case class Counts(tp: Int, fp: Int, fn: Int) {
    def +(o: Counts): Counts = Counts(tp + o.tp, fp + o.fp, fn + o.fn)
  }

  final case class PRF(precision: Double, recall: Double, f1: Double)

  /** Does detected period d match truth T within tolerance (fraction)? */
  def matches(detected: Int, truth: Int, tol: Double): Boolean =
    if (tol <= 0.0) detected == truth
    else math.abs(detected - truth) <= tol * truth

  /** Greedy 1-1 matching of detected periods to true periods. */
  def score(detected: Seq[Int], truth: Seq[Int], tol: Double): Counts = {
    val remaining = scala.collection.mutable.ArrayBuffer(detected: _*)
    var tp = 0
    truth.foreach { t =>
      val i = remaining.indexWhere(d => matches(d, t, tol))
      if (i >= 0) { tp += 1; remaining.remove(i) }
    }
    Counts(tp, remaining.length, truth.length - tp)
  }

  /** Single-period accuracy (Table 1's "precision"): the top-ranked
    * detection must match the single true period.
    */
  def topOneCorrect(detected: Seq[Int], truth: Int, tol: Double): Boolean =
    detected.headOption.exists(d => matches(d, truth, tol))

  def prf(c: Counts): PRF = {
    val p = if (c.tp + c.fp == 0) 0.0 else c.tp.toDouble / (c.tp + c.fp)
    val r = if (c.tp + c.fn == 0) 0.0 else c.tp.toDouble / (c.tp + c.fn)
    val f = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    PRF(p, r, f)
  }

  /** Micro-averaged PRF over per-series counts. */
  def aggregate(counts: Seq[Counts]): PRF =
    prf(counts.foldLeft(Counts(0, 0, 0))(_ + _))
}
