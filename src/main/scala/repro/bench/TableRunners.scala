package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SynthData.TxStreamSpec
import repro.core._

/** The experiment runners behind each reproduced table. The bench suites
  * (`bench/src/test`) call these, print the tables and assert the paper's
  * qualitative claims.
  */
object TableRunners {

  def fmt(x: Double): String =
    if (x == 0) "0"
    else if (x >= 1000) f"$x%.0f"
    else if (x >= 10) f"$x%.1f"
    else if (x >= 0.01) f"$x%.3f"
    else f"$x%.2e"

  def row(cells: Seq[String], widths: Seq[Int]): String =
    cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString(" | ")

  // ------------------------------------------------------------------
  // Table 3 — dataset statistics
  // ------------------------------------------------------------------

  final case class DatasetStats(name: String, v: Long, e: Long, avgDegree: Double,
                                increments: Long, fraudEdges: Long)

  def table3(spark: SparkSession, specs: Seq[TxStreamSpec]): Seq[DatasetStats] =
    specs.map { spec =>
      val (init, inc) = BenchDatasets.load(spark, spec)
      val all = init ++ inc
      // |V| = the materialized account space (isolated accounts included) —
      // matches how the evolving graph is built and how Table 3 defines
      // avg degree = 2|E|/|V|.
      val vertices = all.iterator.map(t => math.max(t.src, t.dst)).max.toLong + 1
      val e = all.length.toLong
      DatasetStats(spec.name, vertices, e, 2.0 * e / vertices, inc.length.toLong,
        all.count(_.isFraud).toLong)
    }

  def printTable3(stats: Seq[DatasetStats]): Unit = {
    val w = Seq(10, 10, 10, 12, 11, 11)
    println("\n=== Table 3: statistics of the synthetic stand-in datasets ===")
    println(row(Seq("Dataset", "|V|", "|E|", "avg degree", "Increments", "fraud |E|"), w))
    stats.foreach { s =>
      println(row(Seq(s.name, s.v.toString, s.e.toString, f"${s.avgDegree}%.3f",
        s.increments.toString, s.fraudEdges.toString), w))
    }
  }

  // ------------------------------------------------------------------
  // Table 4 — static runtime vs incremental per-edge time by batch size
  // ------------------------------------------------------------------

  final case class Table4Row(dataset: String, metric: String, staticSeconds: Double,
                             perBatchMicros: Map[Int, Double], affectedEdgeFraction: Double)

  /** One dataset × one metric: measure the static peel and, at each batch
    * size, the batch reorders (`insertBatchEdges` alone, no Detect) over the
    * full increment stream.
    */
  def table4Cell(spark: SparkSession, spec: TxStreamSpec, metric: Suspiciousness,
                 batchSizes: Seq[Int]): Table4Row = {
    val (init, inc) = BenchDatasets.load(spark, spec)

    // static: peel the full final graph, best of 2
    val full = new Spade(metric)
    full.loadGraph(init ++ inc)
    var staticNanos = Long.MaxValue
    (1 to 2).foreach { _ =>
      val t0 = System.nanoTime()
      StaticPeeling.peel(full.graph)
      staticNanos = math.min(staticNanos, System.nanoTime() - t0)
    }

    var singleTouched = 0L
    val perBatch = batchSizes.map { bs =>
      val spade = new Spade(metric)
      spade.loadGraph(init)
      var nanos = 0L
      var touched = 0L
      inc.grouped(bs).foreach { chunk =>
        val t0 = System.nanoTime()
        touched += spade.insertBatchEdges(chunk).edgesTouched
        nanos += System.nanoTime() - t0
      }
      if (bs == 1) singleTouched = touched
      bs -> nanos / 1e3 / inc.length
    }.toMap

    // affected-area fraction at |ΔE|=1 (the paper's 3.5e-4 .. 2.5e-7 claim):
    // incident-edge visits per insertion over the total edge count
    val frac = singleTouched.toDouble /
      (inc.length.toDouble * (init.length + inc.length))

    Table4Row(spec.name, metric.name, staticNanos / 1e9, perBatch, frac)
  }

  def printTable4(rows: Seq[Table4Row], batchSizes: Seq[Int]): Unit = {
    println("\n=== Table 4: incremental maintenance time by batch size (µs/edge) ===")
    val header = Seq("Dataset", "Metric", "static(s)") ++ batchSizes.map(b => s"|ΔE|=$b") ++
      Seq("speedup@1", "E_T/|E|")
    val w = Seq(10, 6, 10) ++ batchSizes.map(_ => 10) ++ Seq(10, 9)
    println(row(header, w))
    rows.foreach { r =>
      val speedup = r.staticSeconds * 1e6 / math.max(1e-9, r.perBatchMicros(1))
      println(row(
        Seq(r.dataset, r.metric, fmt(r.staticSeconds)) ++
          batchSizes.map(b => fmt(r.perBatchMicros(b))) ++
          Seq(f"$speedup%.1e", f"${r.affectedEdgeFraction}%.1e"),
        w))
    }
  }

  // ------------------------------------------------------------------
  // Table 5 — elapsed time and latency: static vs Inc-1K vs grouping
  // ------------------------------------------------------------------

  final case class Table5Row(dataset: String, metric: String,
                             staticSeconds: Double, staticPrevention: Double,
                             inc1kMicros: Double, inc1kLatencyNorm: Double, inc1kPrevention: Double,
                             groupMicros: Double, groupLatencyNorm: Double, groupPrevention: Double,
                             groupFlushes: Int)

  def table5Cell(spark: SparkSession, spec: TxStreamSpec, metric: Suspiciousness): Table5Row = {
    val (init, inc) = BenchDatasets.load(spark, spec)
    def replay(policy: FlushPolicy) = {
      val spade = new Spade(metric, policy)
      spade.loadGraph(init)
      StreamReplay.replay(spade, inc)
    }
    val st = StreamReplay.replayStatic(metric, init, inc, oracleGranularity = 200)
    val b1k = replay(FlushPolicy.Every(1000))
    val gr = replay(FlushPolicy.Grouped)
    Table5Row(spec.name, metric.name,
      st.staticRunSeconds, st.preventionRatio,
      b1k.perEdgeMicros, b1k.avgLatencyAll / math.max(1e-12, st.avgLatencyAll), b1k.preventionRatio,
      gr.perEdgeMicros, gr.avgLatencyAll / math.max(1e-12, st.avgLatencyAll), gr.preventionRatio,
      gr.flushes)
  }

  def printTable5(rows: Seq[Table5Row]): Unit = {
    println("\n=== Table 5: elapsed time ε (µs/edge) and latency L (normalized to static) ===")
    val w = Seq(10, 6, 11, 9, 11, 9, 9, 11, 9, 9, 8)
    println(row(Seq("Dataset", "Metric", "static ε(s)", "static R",
      "Inc1K ε", "Inc1K L", "Inc1K R", "Group ε", "Group L", "Group R", "flushes"), w))
    rows.foreach { r =>
      println(row(Seq(r.dataset, r.metric, fmt(r.staticSeconds), f"${r.staticPrevention}%.3f",
        fmt(r.inc1kMicros), fmt(r.inc1kLatencyNorm), f"${r.inc1kPrevention}%.3f",
        fmt(r.groupMicros), fmt(r.groupLatencyNorm), f"${r.groupPrevention}%.3f",
        r.groupFlushes.toString), w))
    }
  }
}
