package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Tables

/** spark-submit entrypoint for the evaluation tables. Optional second arg:
  * series count per condition (default 100; 40 for table 6, 50 for 7and8).
  *
  *   spark-submit --class repro.jobs.TableJob repro.jar <1|2|3|4|5|6|7and8> [count]
  */
object TableJob {
  private val MetricCols = "(cond | algo | tol | precision | recall | f1 | top1 | n)"

  /** Table name → printer, given the session and the count (with its default). */
  private val tables: Map[String, (SparkSession, Int => Int) => Unit] = Map(
    "1" -> ((spark, count) => println(Tables.render(Tables.table1(spark, count(100)),
      s"Table 1: single-period precision $MetricCols"))),
    "2" -> ((spark, count) => println(Tables.render(Tables.table2(spark, count(100)),
      s"Table 2: multi-period F1 $MetricCols"))),
    "3" -> ((spark, count) => println(Tables.render(Tables.table3(spark, count(100)),
      s"Table 3: square/triangle F1 $MetricCols"))),
    "4" -> ((spark, _) => {
      println("\n=== Table 4: Alibaba-like datasets ===")
      Tables.table4(spark).foreach { case (cond, algo, det) =>
        println(f"$cond%-38s $algo%-16s -> ${det.mkString("(", ",", ")")}")
      }
    }),
    "5" -> ((spark, count) => println(Tables.render(Tables.table5(spark, count(100)),
      s"Table 5: ablations $MetricCols"))),
    "6" -> ((spark, count) => println(Tables.render(Tables.table6(spark, count(40)),
      "Table 6: forecasting (algo | horizon | rmse | mae | n)"))),
    "7and8" -> ((spark, count) => {
      val (rt, f1) = Tables.table7and8(spark, count(50))
      println(Tables.render(rt, "Table 7: runtime (cond | algo | avg_ms | n)"))
      println(Tables.render(f1, s"Table 8: F1 vs length $MetricCols"))
    }),
  )

  def main(args: Array[String]): Unit = {
    val run = args.headOption.flatMap(tables.get)
      .getOrElse(sys.error("usage: TableJob <1|2|3|4|5|6|7and8> [count]"))
    val spark = SparkSession.builder.appName(s"robustperiod-table${args(0)}").getOrCreate()
    run(spark, default => args.lift(1).map(_.toInt).getOrElse(default))
    spark.stop()
  }
}
