package perfbench

import java.lang.management.ManagementFactory

/** Benchmark entry point:
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * Prints a `#` header, human-readable summary lines, and as its last line
  * one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
  * metrics of the traced run with `--trace 1`.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        outDir: java.nio.file.Path)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toInt
    require(seconds >= 1, "--seconds must be ≥ 1")
    Opts(Workloads.byName(need("workload")), need("seed").toLong, seconds, trace,
      java.nio.file.Paths.get(kv.getOrElse("out", ".bench_build/perfbench/out")))
  }

  /** Seconds since the JVM started: `setup_s` when read at the first timed call. */
  def sinceJvmStartS(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0

  def header(o: Opts, master: String, shufflePartitions: String): Unit = {
    val rt = Runtime.getRuntime
    println(s"# perfbench workload=${o.workload.name} seed=${o.seed} seconds=${o.seconds} " +
      s"trace=${if (o.trace) 1 else 0} nproc=${rt.availableProcessors} " +
      s"jvm=${System.getProperty("java.vm.name")}/${System.getProperty("java.runtime.version")} " +
      s"heap_max_mb=${rt.maxMemory / (1 << 20)} master=$master shuffle_partitions=$shufflePartitions")
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val out =
      if (o.trace) Traced.run(o)
      else o.workload.runner match {
        case SingleThread => SingleThreadRun.run(o)
        case SparkBatch   => SparkBatchRun.run(o)
        case Streaming    => StreamRun.run(o)
      }
    println(out.json)
    System.out.flush()
    // Exit explicitly: idle pool threads left by Spark can otherwise hold
    // the JVM open for a minute after the work is done.
    sys.exit(0)
  }
}
