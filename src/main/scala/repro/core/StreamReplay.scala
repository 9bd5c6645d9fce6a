package repro.core

import scala.collection.mutable

/** Discrete-event replay of an update stream `ΔG^τ` (§4.3), producing the
  * evaluation metrics of §5:
  *
  *  - *maintenance time*: measured wall time of the reorder calls only
  *    (what Table 4 reports per edge);
  *  - *latency* `L` (Eq. 4): virtual response time — an edge arriving at
  *    `τ_i` is responded to when the flush containing it completes; measured
  *    processing wall-time is mapped 1:1 into virtual seconds;
  *  - *queueing time*: flush start minus arrival (§5.2 notes 99.99% of
  *    batch-mode latency is queueing);
  *  - *prevention ratio* `R`: once a vertex appears in the detected
  *    community, later fraud-labeled transactions touching it count as
  *    prevented (the paper's moderators ban the account). Prevented edges
  *    are still inserted — we only account, so every mode sees the same
  *    final graph.
  *
  * Each replay builds a fresh [[Spade]], loads `initial`, then replays
  * `increments` in arrival order.
  */
object StreamReplay {

  /** The spotting threshold of every replay: `Spade.DefaultSpotBeta`. */
  val DefaultSpotBeta: Double = Spade.DefaultSpotBeta

  /** Aggregated result of one replay configuration. */
  final case class ReplayResult(
      mode: String,
      edges: Int,
      flushes: Int,
      maintenanceNanos: Long,
      detectNanos: Long,
      avgLatencyAll: Double,
      avgLatencyFraud: Double,
      avgQueueing: Double,
      preventionRatio: Double,
      fraudEdges: Int,
      spottedVertices: Int,
      stats: ReorderStats,
      staticRunSeconds: Double = 0.0,
  ) {
    /** Average maintenance time per edge, in microseconds. */
    def perEdgeMicros: Double = if (edges == 0) 0.0 else maintenanceNanos / 1e3 / edges
  }

  /** Tracks per-vertex spotting times and scores fraud edges against them. */
  private final class PreventionTracker {
    private val spottedAt = mutable.HashMap.empty[Int, Double]
    var fraudTotal = 0
    var fraudPrevented = 0
    var latencyAllSum = 0.0
    var latencyFraudSum = 0.0
    var queueSum = 0.0
    var nAll = 0

    def observeArrival(t: Tx): Unit = {
      if (t.isFraud) {
        fraudTotal += 1
        val hit = spottedAt.get(t.src).exists(_ < t.ts) || spottedAt.get(t.dst).exists(_ < t.ts)
        if (hit) fraudPrevented += 1
      }
    }

    def recordResponse(t: Tx, flushStart: Double, completion: Double): Unit = {
      val lat = completion - t.ts
      latencyAllSum += lat
      queueSum += math.max(0.0, flushStart - t.ts)
      if (t.isFraud) latencyFraudSum += lat
      nAll += 1
    }

    def spot(members: Array[Int], visibleAt: Double): Unit =
      members.foreach { v => if (!spottedAt.contains(v)) spottedAt(v) = visibleAt }

    def spotCount: Int = spottedAt.size
    def preventionRatio: Double = if (fraudTotal == 0) 0.0 else fraudPrevented.toDouble / fraudTotal
  }

  /** Replay with fixed-size batches (`IncX-batch` rows of Tables 4/5).
    * A batch flushes when `batchSize` edges have queued; the flush runs the
    * Algorithm-2 reorder. `detect` runs every `detectEvery` flushes —
    * Table 4 measures pure maintenance time, so tiny batch sizes use a
    * coarser detection cadence to keep the density walk out of the
    * per-edge numbers (the reported `maintenanceNanos` never includes it
    * either way).
    */
  def replayBatched(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                    batchSize: Int, detectEvery: Int = 1,
                    spotBeta: Double = DefaultSpotBeta): ReplayResult = {
    require(batchSize >= 1, "batch size must be >= 1")
    require(detectEvery >= 1, "detectEvery must be >= 1")
    val spade = new Spade(metric)
    spade.loadGraph(initial)
    val tracker = new PreventionTracker
    // fraudsters known from the initial graph are already banned when the
    // stream starts — every mode (incl. static) gets this head start
    if (increments.nonEmpty)
      tracker.spot(spade.detectSuspects(spotBeta).members, increments.head.ts - 1.0)
    var maintNanos = 0L
    var detNanos = 0L
    var flushes = 0
    var prevCompletion = if (increments.isEmpty) 0.0 else increments.head.ts
    var agg = ReorderStats.zero

    increments.grouped(batchSize).foreach { chunk =>
      chunk.foreach(tracker.observeArrival)
      val trigger = chunk.last.ts
      val start = math.max(trigger, prevCompletion)
      val t0 = System.nanoTime()
      val st = spade.insertBatchEdges(chunk)
      val t1 = System.nanoTime()
      maintNanos += t1 - t0
      agg = agg.merge(st)
      flushes += 1
      val doDetect = flushes % detectEvery == 0
      var t2 = t1
      if (doDetect) {
        spade.detect()
        val suspects = spade.detectSuspects(spotBeta)
        t2 = System.nanoTime()
        detNanos += t2 - t1
        val completion = start + (t2 - t0) / 1e9
        tracker.spot(suspects.members, completion)
      }
      val completion = start + (t2 - t0) / 1e9
      prevCompletion = completion
      chunk.foreach(t => tracker.recordResponse(t, start, completion))
    }
    result("batch-" + batchSize, increments, flushes, maintNanos, detNanos, tracker, agg)
  }

  /** Replay with edge grouping (§4.3, the `IncXG` rows): benign edges
    * buffer, an urgent edge flushes everything pending immediately.
    */
  def replayGrouped(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                    flushCap: Int = 1 << 20,
                    spotBeta: Double = DefaultSpotBeta): ReplayResult = {
    val spade = new Spade(metric, flushCap)
    spade.loadGraph(initial)
    val tracker = new PreventionTracker
    if (increments.nonEmpty)
      tracker.spot(spade.detectSuspects(spotBeta).members, increments.head.ts - 1.0)
    var maintNanos = 0L
    var flushes = 0
    var prevCompletion = if (increments.isEmpty) 0.0 else increments.head.ts
    var agg = ReorderStats.zero
    val queued = mutable.ArrayBuffer.empty[Tx]

    def complete(trigger: Double, nanos: Long, st: ReorderStats): Unit = {
      val start = math.max(trigger, prevCompletion)
      val completion = start + nanos / 1e9
      prevCompletion = completion
      queued.foreach(t => tracker.recordResponse(t, start, completion))
      queued.clear()
      tracker.spot(spade.detectSuspects(spotBeta).members, completion)
      agg = agg.merge(st)
      flushes += 1
    }

    increments.foreach { t =>
      tracker.observeArrival(t)
      queued += t
      val t0 = System.nanoTime()
      val flushed = spade.insertGrouped(t)
      val t1 = System.nanoTime()
      flushed.foreach { st =>
        maintNanos += t1 - t0
        complete(t.ts, t1 - t0, st)
      }
    }
    if (spade.pendingCount > 0) {
      val trigger = increments.last.ts
      val t0 = System.nanoTime()
      val st = spade.flushPending()
      val t1 = System.nanoTime()
      maintNanos += t1 - t0
      complete(trigger, t1 - t0, st)
    }
    result("grouped", increments, flushes, maintNanos, 0L, tracker, agg)
  }

  /** The static baseline (the DG/DW/FD columns): from-scratch peeling runs
    * back to back; an edge is answered by the first run whose snapshot was
    * taken at or after its arrival. The run duration `E_s` is measured on
    * the final graph; spotting capability per vertex is taken from a
    * zero-cost incremental oracle pass at `oracleGranularity` edges, since
    * the static algorithm detects exactly what the incremental one does —
    * only later.
    */
  def replayStatic(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                   oracleGranularity: Int = 20, measuredRuns: Int = 1,
                   spotBeta: Double = DefaultSpotBeta): ReplayResult = {
    // Measure one static peel on the full final graph.
    val full = new Spade(metric)
    full.loadGraph(initial ++ increments)
    var best = Long.MaxValue
    (1 to measuredRuns).foreach { _ =>
      val t0 = System.nanoTime()
      StaticPeeling.peel(full.graph)
      best = math.min(best, System.nanoTime() - t0)
    }
    val runSec = best / 1e9

    // Oracle pass: when does each vertex *become detectable*?
    val capability = detectionCapability(metric, initial, increments, oracleGranularity, spotBeta)

    val t0 = if (increments.isEmpty) 0.0 else increments.head.ts
    def snapshotAfter(ts: Double): Double = {
      // Runs start at t0, t0+E_s, t0+2E_s, ...; first snapshot taken at or
      // after ts completes one run-length later.
      val j = math.ceil(math.max(0.0, ts - t0) / runSec)
      t0 + (j + 1) * runSec
    }

    val tracker = new PreventionTracker
    increments.foreach { t =>
      if (t.isFraud) {
        tracker.fraudTotal += 1
        val hit = Seq(t.src, t.dst).exists { v =>
          // fraudsters known before the stream started (capability < t0)
          // were banned by the previous pipeline run already
          capability.get(v).exists(capTs =>
            (if (capTs < t0) t0 else snapshotAfter(capTs)) < t.ts)
        }
        if (hit) tracker.fraudPrevented += 1
      }
      val completion = snapshotAfter(t.ts)
      val start = completion - runSec
      tracker.recordResponse(t, start, completion)
    }
    result("static", increments, increments.length, 0L, 0L, tracker, ReorderStats.zero)
      .copy(staticRunSeconds = runSec)
  }

  /** First-detectable arrival time per vertex: incremental replay in chunks
    * of `granularity` with zero processing cost — the algorithm-capability
    * oracle shared by the static latency model.
    */
  def detectionCapability(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                          granularity: Int, spotBeta: Double = DefaultSpotBeta): Map[Int, Double] = {
    val spade = new Spade(metric)
    spade.loadGraph(initial)
    val capability = mutable.HashMap.empty[Int, Double]
    val t0 = if (increments.isEmpty) 0.0 else increments.head.ts
    spade.detectSuspects(spotBeta).members.foreach(v => capability.getOrElseUpdate(v, t0 - 1.0))
    increments.grouped(granularity).foreach { chunk =>
      spade.insertBatchEdges(chunk)
      val c = spade.detectSuspects(spotBeta)
      val ts = chunk.last.ts
      c.members.foreach(v => capability.getOrElseUpdate(v, ts))
    }
    capability.toMap
  }

  private def result(mode: String, increments: Seq[Tx], flushes: Int,
                     maintNanos: Long, detNanos: Long, tracker: PreventionTracker,
                     agg: ReorderStats): ReplayResult = {
    val n = math.max(1, tracker.nAll)
    ReplayResult(
      mode = mode,
      edges = increments.length,
      flushes = flushes,
      maintenanceNanos = maintNanos,
      detectNanos = detNanos,
      avgLatencyAll = tracker.latencyAllSum / n,
      avgLatencyFraud = if (tracker.fraudTotal == 0) 0.0 else tracker.latencyFraudSum / tracker.fraudTotal,
      avgQueueing = tracker.queueSum / n,
      preventionRatio = tracker.preventionRatio,
      fraudEdges = tracker.fraudTotal,
      spottedVertices = tracker.spotCount,
      stats = agg,
    )
  }
}
