package repro.baselines

import repro.core.{FisherTest, HuberPeriodogram}
import repro.wavelet.DWT

/** Wavelet-Fisher baseline (Almasri 2011): decimated DWT decouples
  * periodicities; Fisher's test runs on the periodogram of each level's
  * detail coefficients; a significant level-j detection at coefficient
  * period q maps back to original-scale period q·2^j.
  */
class WaveletFisher(alpha: Double = 0.01, waveletOrder: Int = 4, maxLevels: Int = 8)
    extends Detrended("Wavelet-Fisher") {

  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    val n = x.length
    val minLen = 8 * waveletOrder
    val levels = math.max(1, math.min(maxLevels,
      (math.log(n.toDouble / minLen) / math.log(2.0)).toInt))
    if ((n >> levels) << levels < 2 * waveletOrder) return Seq.empty
    val dec = DWT.transform(x, levels, waveletOrder)
    val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]
    var j = 1
    while (j <= levels) {
      val d  = dec.details(j - 1)
      val nl = d.length
      if (nl >= 16) {
        val pHalf  = HuberPeriodogram.vanilla(d)
        val fisher = FisherTest.test(pHalf)
        if (fisher.pValue < alpha && fisher.kMax >= 1) {
          val per = math.round((nl.toDouble / fisher.kMax) * (1 << j)).toInt
          if (per >= 2 && per <= n / 2) out += ((per, fisher.pValue))
        }
      }
      j += 1
    }
    // Most significant first; dedupe near-equal periods across levels.
    val ranked = out.sortBy(_._2).map(_._1)
    val dedup  = scala.collection.mutable.ArrayBuffer.empty[Int]
    ranked.foreach { p =>
      if (!dedup.exists(q => math.abs(q - p) <= math.max(1, 0.05 * math.min(p, q)))) dedup += p
    }
    dedup.toSeq
  }
}

object WaveletFisher extends WaveletFisher(0.01, 4, 8)
