package repro.core

import scala.collection.mutable

/** The first time each vertex was in a suspect set, on the caller's clock:
  * virtual seconds in a replay, the micro-batch id in streaming.
  */
final class SpotRecord {
  private val firstAt = mutable.HashMap.empty[Int, Double]

  /** Record `members` as spotted at `at`; returns those not spotted before. */
  def spot(members: Array[Int], at: Double): Array[Int] =
    members.filter { v =>
      val fresh = !firstAt.contains(v)
      if (fresh) firstAt(v) = at
      fresh
    }

  /** When `v` was first spotted, if ever. */
  def firstSpotted(v: Int): Option[Double] = firstAt.get(v)

  def size: Int = firstAt.size

  def vertices: Set[Int] = firstAt.keySet.toSet
}

/** Discrete-event replay of an update stream `ΔG^τ` (§4.3), producing the
  * evaluation metrics of §5:
  *
  *  - *maintenance time*: measured wall time of the calls that flushed
  *    (batch reorder plus `detect`);
  *  - *detect time*: measured wall time of the spotting walk
  *    (`detectSuspects`) after each flush;
  *  - *latency* `L` (Eq. 4): virtual response time — an edge arriving at
  *    `τ_i` is responded to when the flush containing it and the spotting
  *    walk after it complete; measured processing wall-time is mapped 1:1
  *    into virtual seconds;
  *  - *queueing time*: flush start minus arrival (§5.2 notes 99.99% of
  *    batch-mode latency is queueing);
  *  - *prevention ratio* `R`: once a vertex appears in the suspect set,
  *    later fraud-labeled transactions touching it count as prevented (the
  *    paper's moderators ban the account). Prevented edges are still
  *    inserted — we only account, so every mode sees the same final graph.
  *
  * Every incremental mode is one loop over `Spade.insertGrouped`; the
  * Spade's `FlushPolicy` decides when pending edges flush (`Every(n)` for
  * the `IncX-batch` rows, `Grouped` for the `IncXG` rows).
  */
object StreamReplay {

  /** The spotting threshold of every replay: `Spade.DefaultSpotBeta`. */
  val DefaultSpotBeta: Double = Spade.DefaultSpotBeta

  /** Aggregated result of one replay configuration. */
  final case class ReplayResult(
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
      staticRunSeconds: Double = 0.0,
  ) {
    /** Average maintenance time per edge, in microseconds. */
    def perEdgeMicros: Double = if (edges == 0) 0.0 else maintenanceNanos / 1e3 / edges
  }

  /** Running totals of one replay: arrivals, responses, flushes and spots. */
  private final class Tally {
    val spots = new SpotRecord
    var fraudTotal = 0
    var fraudPrevented = 0
    var latencyAllSum = 0.0
    var latencyFraudSum = 0.0
    var queueSum = 0.0
    var nAll = 0
    var flushes = 0
    var maintNanos = 0L
    var detectNanos = 0L

    /** A fraud edge is prevented when an endpoint was visible as a suspect
      * (`visibleAt`) before it arrived.
      */
    def arrive(t: Tx, visibleAt: Int => Option[Double]): Unit = {
      if (t.isFraud) {
        fraudTotal += 1
        if (visibleAt(t.src).exists(_ < t.ts) || visibleAt(t.dst).exists(_ < t.ts)) fraudPrevented += 1
      }
    }

    def respond(t: Tx, flushStart: Double, completion: Double): Unit = {
      val lat = completion - t.ts
      latencyAllSum += lat
      queueSum += math.max(0.0, flushStart - t.ts)
      if (t.isFraud) latencyFraudSum += lat
      nAll += 1
    }

    def result(edges: Int, staticRunSeconds: Double = 0.0): ReplayResult = {
      val n = math.max(1, nAll)
      ReplayResult(
        edges = edges,
        flushes = flushes,
        maintenanceNanos = maintNanos,
        detectNanos = detectNanos,
        avgLatencyAll = latencyAllSum / n,
        avgLatencyFraud = if (fraudTotal == 0) 0.0 else latencyFraudSum / fraudTotal,
        avgQueueing = queueSum / n,
        preventionRatio = if (fraudTotal == 0) 0.0 else fraudPrevented.toDouble / fraudTotal,
        fraudEdges = fraudTotal,
        spottedVertices = spots.size,
        staticRunSeconds = staticRunSeconds,
      )
    }
  }

  /** Replay `increments` in arrival order through `spade`, which must have
    * no pending edges; its `FlushPolicy` decides when edges
    * flush. One timing rule for every policy: maintenance is the call that
    * flushed, detect is the spotting walk after it, and the flushed edges
    * complete once both are done. The edges still pending at the end flush
    * at the last arrival.
    */
  def replay(spade: Spade, increments: Seq[Tx]): ReplayResult =
    run(spade, increments, () => System.nanoTime()).result(increments.length)

  /** The flush → detect → spot loop, timed by `clock` (nanoseconds). */
  private def run(spade: Spade, increments: Seq[Tx], clock: () => Long): Tally = {
    val tally = new Tally
    if (increments.isEmpty) return tally
    // fraudsters known from the initial graph are already banned when the
    // stream starts — every mode (incl. static) gets this head start
    tally.spots.spot(spade.detectSuspects(DefaultSpotBeta).members, increments.head.ts - 1.0)
    var prevCompletion = increments.head.ts
    val queued = mutable.ArrayBuffer.empty[Tx]

    def flushed(trigger: Double, maintNanos: Long): Unit = {
      val t0 = clock()
      val suspects = spade.detectSuspects(DefaultSpotBeta)
      val detectNanos = clock() - t0
      val start = math.max(trigger, prevCompletion)
      val completion = start + (maintNanos + detectNanos) / 1e9
      prevCompletion = completion
      queued.foreach(tally.respond(_, start, completion))
      queued.clear()
      tally.spots.spot(suspects.members, completion)
      tally.flushes += 1
      tally.maintNanos += maintNanos
      tally.detectNanos += detectNanos
    }

    increments.foreach { t =>
      tally.arrive(t, tally.spots.firstSpotted)
      queued += t
      val t0 = clock()
      if (spade.insertGrouped(t).isDefined) flushed(t.ts, clock() - t0)
    }
    if (spade.pendingCount > 0) {
      val t0 = clock()
      spade.flushPending()
      flushed(increments.last.ts, clock() - t0)
    }
    tally
  }

  /** The static baseline (the DG/DW/FD columns): from-scratch peeling runs
    * back to back; an edge is answered by the first run whose snapshot was
    * taken at or after its arrival. The run duration `E_s` is the median of
    * `StaticTimedPeels` timed peels of the final graph after one untimed
    * warm-up peel (a single timed peel moved by up to 2.3x from run to run,
    * and every normalized L of a Table 5 row with it); spotting capability
    * per vertex is taken from
    * `detectionCapability` at `oracleGranularity` edges, since the static
    * algorithm detects exactly what the incremental one does — only later.
    */
  /** Timed static peels whose median is `replayStatic`'s run duration. */
  val StaticTimedPeels = 5

  def replayStatic(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                   oracleGranularity: Int = 20): ReplayResult = {
    val full = new Spade(metric)
    full.loadGraph(initial ++ increments)
    StaticPeeling.peel(full.graph) // warm-up
    val times = Array.fill(StaticTimedPeels) {
      val p0 = System.nanoTime()
      StaticPeeling.peel(full.graph)
      (System.nanoTime() - p0) / 1e9
    }
    val runSec = times.sorted.apply(StaticTimedPeels / 2)

    val capability = detectionCapability(metric, initial, increments, oracleGranularity)

    val t0 = if (increments.isEmpty) 0.0 else increments.head.ts
    def snapshotAfter(ts: Double): Double = {
      // Runs start at t0, t0+E_s, t0+2E_s, ...; first snapshot taken at or
      // after ts completes one run-length later.
      val j = math.ceil(math.max(0.0, ts - t0) / runSec)
      t0 + (j + 1) * runSec
    }
    // fraudsters known before the stream started (capability < t0) were
    // banned by the previous pipeline run already
    def visibleAt(v: Int): Option[Double] =
      capability.firstSpotted(v).map(c => if (c < t0) t0 else snapshotAfter(c))

    val tally = new Tally
    increments.foreach { t =>
      tally.arrive(t, visibleAt)
      val completion = snapshotAfter(t.ts)
      tally.respond(t, completion - runSec, completion)
    }
    tally.result(increments.length, staticRunSeconds = runSec)
  }

  /** First-detectable arrival time per vertex: the replay loop flushing
    * every `granularity` edges on a zero-cost clock — the capability oracle
    * of the static latency model.
    */
  def detectionCapability(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                          granularity: Int): SpotRecord = {
    val spade = new Spade(metric, FlushPolicy.Every(granularity))
    spade.loadGraph(initial)
    run(spade, increments, () => 0L).spots
  }
}
