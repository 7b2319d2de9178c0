package perfbench

import repro.core.RobustPeriod
import repro.core.RobustPeriod.Config
import repro.synth.Datasets.Series

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** One thread, closed loop: `RobustPeriod.detect` on the workload's timed
  * series, cycling, the next call issued when the previous returns.
  */
object SingleThreadRun {

  /** Detected periods, or None when the call threw. */
  def attempt(s: Series, cfg: Config): Option[Seq[Int]] =
    try Some(RobustPeriod.detect(s.values, cfg).periods)
    catch { case NonFatal(e) => Console.err.println(s"[perfbench] series ${s.id}: $e"); None }

  /** A fixed warm-up, so that set-up is the same work on every run: the
    * first pass over the corpus gives the results that F1 is scored on and
    * that the timed calls must reproduce; the workload's further passes
    * let the JIT settle.
    */
  def warmUp(corpus: IndexedSeq[Series], cfg: Config, passes: Int): IndexedSeq[Option[Seq[Int]]] = {
    val ref = corpus.map(attempt(_, cfg))
    for (k <- 1 until passes) {
      val t0 = System.nanoTime()
      corpus.foreach(attempt(_, cfg))
      println(f"# warm-up pass $k: ${(System.nanoTime() - t0) / 1e6 / corpus.length}%.2f ms per series")
    }
    ref
  }

  def run(o: Main.Opts): Outcome = {
    Main.header(o, master = "none", shufflePartitions = "none")
    val cfg    = o.workload.cfg
    val corpus = o.workload.corpus(o.seed)
    val timed  = corpus.take(o.workload.timed)
    val checks = new Checks
    checks(attempt(Guarded.TooShort, cfg).isEmpty, "the too-short probe series did not fail")
    val ref = warmUp(corpus, cfg, o.workload.warmPasses)

    val setupS = Main.sinceJvmStartS()
    val lat = ArrayBuffer.empty[(Long, Double)]
    var attempted, failed, i = 0
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < o.seconds * 1000000000L) {
      val k = i % timed.length
      val a = System.nanoTime()
      val r = attempt(timed(k), cfg)
      val ms = (System.nanoTime() - a) / 1e6
      attempted += 1
      if (r.isEmpty) failed += 1 else lat += timed(k).id -> ms
      checks(r == ref(k), s"series ${timed(k).id}: ${r} differs from its first detection ${ref(k)}")
      i += 1
    }
    val wallS = (System.nanoTime() - t0) / 1e9

    val pairs = corpus.zip(ref).collect { case (s, Some(d)) => (d, s.truth.toSeq) }
    Outcome(checks.ok, attempted, failed,
      Stats.endToEnd(setupS, lat.toSeq, attempted - failed, wallS, pairs, attempted, failed))
  }
}
