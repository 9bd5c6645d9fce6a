package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}
import repro.core.{Community, ReorderStats, Spade, SpotRecord, Suspiciousness, Tx}

/** Structured-Streaming front end for Spade: every micro-batch of
  * transactions is sorted by arrival time and folded into the driver-held
  * evolving-graph state with one Algorithm-2 batch reorder, then the updated
  * fraudulent community is re-detected — the paper's Fig. 4 workflow with
  * Spark micro-batches playing the role of the update stream `ΔG^τ`.
  *
  * The graph state is driver-side on purpose: the peeling-sequence merge is
  * a sequential priority-queue algorithm (that sequentiality is the paper's
  * contribution), while Spark owns ingestion, ordering and the surrounding
  * dataflow. `foreachBatch` gives exactly-once, in-order micro-batches on a
  * single stream, which is the consistency the evolving-graph model of §2.1
  * (ordered edge insertions) requires.
  */
final class StreamingSpade(metric: Suspiciousness, spotBeta: Double = Spade.DefaultSpotBeta) {

  val spade = new Spade(metric)

  /** The outcome of one processed micro-batch. */
  final case class BatchReport(batchId: Long, edges: Int, community: Community,
                               newlySpotted: Array[Int], stats: ReorderStats)

  // Only the last report and running totals are kept, so memory does not
  // grow with the number of batches.
  private val spots = new SpotRecord
  private var last: Option[BatchReport] = None
  private var batches = 0L
  private var edges = 0L

  /** The report of the most recent micro-batch. */
  def lastReport: Option[BatchReport] = synchronized(last)

  /** Micro-batches processed so far. */
  def batchCount: Long = synchronized(batches)

  /** Edges folded in by micro-batches so far. */
  def edgeCount: Long = synchronized(edges)

  /** Vertices ever seen in a suspect set. */
  def spottedVertices: Set[Int] = synchronized(spots.vertices)

  /** The id of the micro-batch whose suspect set first held `v`. */
  def firstSpottedBatch(v: Int): Option[Long] = synchronized(spots.firstSpotted(v).map(_.toLong))

  /** Bulk-load the initial graph before streaming starts. */
  def initialize(initial: Seq[Tx]): Community = spade.loadGraph(initial)

  /** Fold one already-collected micro-batch into the state. Exposed so the
    * offline replay and the streaming sink share one code path.
    */
  def processBatch(batchId: Long, txs: Array[Tx]): BatchReport = {
    val ordered = txs.sortBy(t => (t.ts, t.src, t.dst))
    val stats = spade.insertBatchEdges(ordered.toSeq)
    val community = spade.detect()
    val suspects = spade.detectSuspects(spotBeta)
    synchronized {
      val fresh = spots.spot(suspects.members, batchId.toDouble)
      val rep = BatchReport(batchId, ordered.length, community, fresh, stats)
      last = Some(rep)
      batches += 1
      edges += ordered.length
      rep
    }
  }

  /** Attach to a streaming DataFrame with columns
    * (src, dst, amount, ts, fraudId) and start the query. The caller owns
    * the query lifecycle (`processAllAvailable`, `stop`).
    */
  def start(stream: DataFrame, queryName: String = "spade-stream"): StreamingQuery = {
    TxFrames.txColumns(stream)
      .writeStream
      .queryName(queryName)
      .trigger(Trigger.ProcessingTime(0L))
      .outputMode("append")
      .foreachBatch { (df: DataFrame, batchId: Long) =>
        val txs = df.collect().map(TxFrames.toTx)
        if (txs.nonEmpty) { processBatch(batchId, txs); () }
      }
      .start()
  }
}
