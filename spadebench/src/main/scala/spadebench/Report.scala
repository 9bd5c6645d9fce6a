package spadebench

/** A metric as the result line reports it: a value, or the reason it was
  * not measured on this run.
  */
final case class Metric(name: String, unit: String, value: Either[String, Double], detail: Map[String, Any] = Map.empty)

/** The end-to-end and per-layer metrics computed from a run's passes. */
object Report {

  /** The open-loop and closed-loop view of one pass. */
  final class PassView(val log: PassLog) {
    private val serviceNs = log.jobServiceNs.toArray
    val schedule: QueueModel.Schedule =
      QueueModel.schedule(log.jobArrival.toArray, serviceNs.map(_ / 1e9))
    val busyS: Double = serviceNs.sum / 1e9
    val completedOps: Int = log.opVisibleJob.count(_ >= 0)
    val capacity: Double = completedOps / busyS

    /** Closed loop: service time from an operation's hand-off to the end of
      * the job that made it visible, the time spent between calls excluded.
      */
    val visibleUs: Array[Double] = {
      val cum = serviceNs.scanLeft(0L)(_ + _) // cum(j) = service before job j
      (0 until log.ops).iterator.filter(log.opVisibleJob(_) >= 0)
        .map(op => (cum(log.opVisibleJob(op) + 1) - cum(log.opJob(op))) / 1e3).toArray
    }

    private val fraudOps = (0 until log.ops).filter(op => log.opTx(op).isFraud)

    /** Open loop: from a fraud increment's timestamp to the completion of
      * the job that made it visible, queueing included.
      */
    val fraudLagMs: Array[Double] = fraudOps.iterator.filter(log.opVisibleJob(_) >= 0)
      .map(op => (schedule.completion(log.opVisibleJob(op)) - log.opTx(op).ts) * 1e3).toArray

    private def visibleAt(v: Int): Double = log.firstSeen(v) match {
      case Int.MaxValue => Double.PositiveInfinity
      case -1 => Double.NegativeInfinity
      case j => schedule.completion(j)
    }

    /** Fraud increments whose src or dst was reported before they arrived. */
    val fraudTotal: Int = fraudOps.length
    val fraudPrevented: Int = fraudOps.count { op =>
      val t = log.opTx(op)
      math.min(visibleAt(t.src), visibleAt(t.dst)) < t.ts
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def quantile(name: String, unit: String, xs: Array[Double], q: Double): Metric =
    Percentiles.of(xs, q) match {
      case Right(x) => Metric(name, unit, Right(x.value), Map("samples" -> x.samples))
      case Left(why) => Metric(name, unit, Left(why), Map("samples" -> xs.length))
    }

  private def ratio(num: Long, den: Long, why: String): Either[String, Double] =
    if (den == 0) Left(why) else Right(num.toDouble / den)

  /** The end-to-end metrics over untraced passes; latencies pool samples.
    * These are the regression gate: each is steady across seeds.
    */
  def endToEnd(views: Seq[PassView]): Seq[Metric] = {
    val fraud = views.map(_.fraudTotal).sum
    Seq(
      Metric("setup_s", "s", Right(median(views.map(_.log.setupNs / 1e9))), Map("samples" -> views.length)),
      Metric("capacity_tx_s", "1/s", Right(median(views.map(_.capacity))), Map("samples" -> views.length)),
      quantile("visible_p50_us", "us", views.flatMap(_.visibleUs).toArray, 0.50),
      quantile("fraud_lag_p50_ms", "ms", views.flatMap(_.fraudLagMs).toArray, 0.50),
      Metric("prevention_ratio", "ratio",
        ratio(views.map(_.fraudPrevented.toLong).sum, fraud, "no fraud increment in the windows"),
        Map("fraud_increments" -> fraud)),
      Metric("state_mb", "MB", Right(median(views.map(_.log.stateBytes / 1048576.0))), Map("samples" -> views.length)),
    )
  }

  /** The p99 latencies, reported but not gated: across seeds they follow
    * a property of each generated graph (how many fraud edges grouping
    * buffers before the first urgent one, the largest recovery cascade)
    * more than the speed of the code.
    */
  def tails(views: Seq[PassView]): Seq[Metric] = Seq(
    quantile("visible_p99_us", "us", views.flatMap(_.visibleUs).toArray, 0.99),
    quantile("fraud_lag_p99_ms", "ms", views.flatMap(_.fraudLagMs).toArray, 0.99),
  )

  /** The per-layer metrics that every workload measures, each on every
    * run: the result line of a traced run carries these. The others belong
    * to one workload's layers, or can read exactly 0 on every run (no
    * queueing, no GC); they go to the result file only.
    */
  val EveryWorkload: Seq[String] = Seq(
    "txframes.collect_s", "txframes.rows", "loadgraph.s", "loadgraph.vertices", "loadgraph.edges",
    "reorder.calls", "reorder.window_mean", "reorder.recovered_mean", "reorder.edges_touched_mean",
    "reorder.recovered_ratio", "detect.calls", "detect.community_size_mean",
    "queue.backlog_max", "queue.utilization", "jvm.gc_count", "spark.session_s", "trace.overhead_ratio")

  /** The per-layer metrics: timings from the traced passes, counts from
    * the first pass (they repeat exactly), the queue from untraced passes.
    */
  def perLayer(untraced: Seq[PassView], traced: Seq[PassView], sessionS: Double): Seq[Metric] = {
    val all = untraced ++ traced
    val c = traced.head.log.counts
    def n(k: String): Long = c.getOrElse(k, 0L)
    val spans = traced.flatMap(_.log.spans)
    val self = Trace.rollup(spans).map(r => r.name -> r).toMap
    def busy(span: String, why: String): Either[String, Double] =
      self.get(span).map(_.selfNs / 1e9 / traced.length).toRight(why)
    def us(span: String): Array[Double] = spans.flatMap(_.micros(span)).toArray
    def q(name: String, unit: String, span: String, p: Double, why: String, scale: Double = 1.0): Metric = {
      val xs = us(span).map(_ / scale)
      if (xs.isEmpty) Metric(name, unit, Left(why)) else quantile(name, unit, xs, p)
    }
    def count(key: String, why: String): Metric =
      Metric(key, "count", if (c.contains(key)) Right(n(key).toDouble) else Left(why))
    def mean(name: String, unit: String, sum: String, calls: String, why: String): Metric =
      Metric(name, unit, ratio(n(sum), n(calls), why))

    val noInsert = "no insert call on this workload"
    val reorderInside = "the reorder runs inside insertGrouped or processBatch, timed there"
    val noDetect = "this workload makes no separate detect call"
    val detectInside = "detect runs inside insertGrouped's flush or processBatch, timed there"
    val noSuspects = "suspects are computed inside processBatch, timed there"
    val grouping = "grouped-fd only"
    val deletes = "refund-dw only"
    val streaming = "microbatch-dg only"
    val insertSpan = "insertEdge"
    val reorderTimedWhy = if (n("reorder.calls") > 0) reorderInside else noInsert
    val detectWhy = if (n("detect.calls") > 0) detectInside else noDetect
    val increments = traced.head.log.ops - n("delete.calls")

    Seq(
      Metric("txframes.collect_s", "s", Right(median(all.map(_.log.collectNs / 1e9)))),
      Metric("txframes.rows", "count", Right(traced.head.log.rows.toDouble)),
      Metric("loadgraph.s", "s", Right(median(all.map(_.log.loadNs / 1e9)))),
      Metric("loadgraph.vertices", "count", Right(traced.head.log.loadedVertices.toDouble)),
      Metric("loadgraph.edges", "count", Right(traced.head.log.loadedEdges.toDouble)),

      count("reorder.calls", noInsert),
      Metric("reorder.busy_s", "s", busy(insertSpan, reorderTimedWhy)),
      q("reorder.us_p50", "us", insertSpan, 0.50, reorderTimedWhy),
      q("reorder.us_p99", "us", insertSpan, 0.99, reorderTimedWhy),
      mean("reorder.window_mean", "count", "reorder.window_sum", "reorder.calls", noInsert),
      mean("reorder.recovered_mean", "count", "reorder.recovered_sum", "reorder.calls", noInsert),
      mean("reorder.edges_touched_mean", "count", "reorder.edges_touched_sum", "reorder.calls", noInsert),
      mean("reorder.recovered_ratio", "ratio", "reorder.recovered_sum", "reorder.window_sum", noInsert),

      count("detect.calls", noDetect),
      Metric("detect.busy_s", "s", busy("detect", detectWhy)),
      q("detect.us_p50", "us", "detect", 0.50, detectWhy),
      q("detect.us_p99", "us", "detect", 0.99, detectWhy),
      mean("detect.community_size_mean", "count", "detect.community_size_sum", "detect.calls", noDetect),

      count("suspects.calls", noSuspects),
      Metric("suspects.busy_s", "s", busy("detectSuspects", noSuspects)),
      q("suspects.us_p50", "us", "detectSuspects", 0.50, noSuspects),
      q("suspects.us_p99", "us", "detectSuspects", 0.99, noSuspects),
      mean("suspects.size_mean", "count", "suspects.size_sum", "suspects.calls", noSuspects),

      q("grouping.buffer_us_p50", "us", "insertGrouped.buffer", 0.50, grouping),
      q("grouping.buffer_us_p99", "us", "insertGrouped.buffer", 0.99, grouping),
      q("grouping.flush_us_p50", "us", "insertGrouped.flush", 0.50, grouping),
      q("grouping.flush_us_p99", "us", "insertGrouped.flush", 0.99, grouping),
      count("grouping.flushes", grouping),
      Metric("grouping.urgent_ratio", "ratio",
        if (c.contains("grouping.flushes")) ratio(n("grouping.urgent"), increments, grouping) else Left(grouping)),
      mean("grouping.edges_per_flush_mean", "count", "grouping.flushed_edges", "grouping.flushes", grouping),
      count("grouping.pending_max", grouping),

      count("delete.calls", deletes),
      Metric("delete.busy_s", "s", busy("deleteEdge", deletes)),
      q("delete.us_p50", "us", "deleteEdge", 0.50, deletes),
      q("delete.us_p99", "us", "deleteEdge", 0.99, deletes),
      mean("delete.window_mean", "count", "delete.window_sum", "delete.calls", deletes),
      mean("delete.edges_touched_mean", "count", "delete.edges_touched_sum", "delete.calls", deletes),
      Metric("delete.missing", "count", if (c.contains("delete.calls")) Right(n("delete.missing").toDouble) else Left(deletes)),

      count("streaming.batches", streaming),
      Metric("streaming.busy_s", "s", busy("processBatch", streaming)),
      q("streaming.ms_p50", "ms", "processBatch", 0.50, streaming, scale = 1e3),
      q("streaming.ms_p90", "ms", "processBatch", 0.90, streaming, scale = 1e3),
      if (c.contains("streaming.batches")) mean("streaming.window_mean", "count", "reorder.window_sum", "reorder.calls", streaming)
      else Metric("streaming.window_mean", "count", Left(streaming)),
      if (c.contains("streaming.batches")) mean("streaming.recovered_mean", "count", "reorder.recovered_sum", "reorder.calls", streaming)
      else Metric("streaming.recovered_mean", "count", Left(streaming)),
      count("streaming.newly_spotted", streaming),

      Metric("queue.max_late_ms", "ms", Right(median(untraced.map(_.schedule.maxLateness * 1e3)))),
      Metric("queue.backlog_max", "count", Right(median(untraced.map(_.schedule.backlogMax.toDouble)))),
      Metric("queue.utilization", "ratio", Right(median(untraced.map(v => v.schedule.utilization(v.log.windows))))),

      Metric("jvm.gc_ms", "ms", Right(median(traced.map(_.log.gcMs.toDouble)))),
      Metric("jvm.gc_count", "count", Right(median(traced.map(_.log.gcCount.toDouble)))),
      Metric("spark.session_s", "s", Right(sessionS)),
      Metric("trace.overhead_ratio", "ratio",
        Right(median(traced.map(_.capacity)) / median(untraced.map(_.capacity)))),
    )
  }
}
