package spadebench

import repro.core.{Spade, StreamReplay, Suspiciousness, Tx}
import repro.spark.StreamingSpade

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Spade after set-up: the object the workload loop calls. */
final class Loaded(val spade: Spade, val streaming: Option[StreamingSpade])

/** One benchmark workload: which metric Spade runs, how many increments
  * from the start of each fraud burst one pass replays, how set-up ends
  * (bulk load) and the closed loop that hands a window of increments
  * to Spade one job at a time.
  */
sealed abstract class Workload(val name: String, val metric: Suspiciousness, val windowLength: Int) {

  /** DG's integer weights make the maintained order bit-identical to a
    * re-peel; real-valued metrics are gated on density and peel weights.
    */
  def exactGate: Boolean = metric eq Suspiciousness.DG

  /** The last step of set-up: bulk-load `initial`. */
  def load(initial: Array[Tx]): Loaded = {
    val spade = new Spade(metric)
    spade.loadGraph(initial)
    new Loaded(spade, None)
  }

  /** Bring Spade up to the next window: the increments between windows go
    * in as one batch, outside any timed region.
    */
  def catchUp(s: Loaded, txs: Array[Tx]): Unit = {
    s.spade.insertBatchEdges(ArraySeq.unsafeWrapArray(txs))
    s.spade.detect()
  }

  /** Replay the window `increments(from until until)` as the closed loop. */
  def drive(s: Loaded, increments: Array[Tx], from: Int, until: Int, log: PassLog): Unit
}

object Workloads {

  val Beta: Double = StreamReplay.DefaultSpotBeta

  /** Rows per micro-batch: Table 4's |ΔE| = 100 column. */
  val BatchRows = 100

  /** A refund every this many benign increments ... */
  val RefundEvery = 10

  /** ... of the benign increment this many benign increments earlier. */
  val RefundLag = 50

  /** §4.3 edge grouping (IncFDG): benign edges buffer, urgent ones flush.
    * The north-star path, and the only one whose fraud lag includes the
    * wait of fraud edges that grouping buffers as benign.
    */
  case object GroupedFd extends Workload("grouped-fd", new Suspiciousness.Fraudar(), 490) {
    def drive(s: Loaded, increments: Array[Tx], from: Int, until: Int, log: PassLog): Unit = {
      val spade = s.spade
      val pending = mutable.ArrayBuffer.empty[Int]
      def flushed(urgent: Boolean): Unit = {
        log.count("grouping.flushes")
        if (urgent) log.count("grouping.urgent")
        log.count("grouping.flushed_edges", pending.length)
        log.community(spade.community) // the flush's own detect, cached
        log.suspects(log.timed("detectSuspects")(spade.detectSuspects(Beta)))
        pending.foreach(log.visible)
        pending.clear()
      }
      (from until until).foreach { i =>
        val t = increments(i)
        log.beginJob(t.ts)
        val op = log.handOff(t)
        pending += op
        log.attempt(op) {
          val r = log.timedAs(spade.insertGrouped(t))(r =>
            if (r.isDefined) "insertGrouped.flush" else "insertGrouped.buffer")
          log.max("grouping.pending_max", spade.pendingCount)
          r.foreach { st => log.reorder(st); flushed(urgent = true) }
        }
        log.endJob()
      }
      if (spade.pendingCount > 0) {
        log.beginJob(increments(until - 1).ts)
        log.attempt(pending.toSeq: _*) {
          log.reorder(log.timed("flushPending")(spade.flushPending()))
          flushed(urgent = false)
        }
        log.endJob()
      }
    }
  }

  /** Structured-Streaming micro-batches of 100 rows through
    * `StreamingSpade.processBatch` (Table 4's |ΔE| = 100). The batch
    * reorder rewrites most of the order each time, so this workload is
    * bound by reorder and leaves Detect nearly idle.
    */
  case object MicrobatchDg extends Workload("microbatch-dg", Suspiciousness.DG, 1000) {
    override def load(initial: Array[Tx]): Loaded = {
      val ss = new StreamingSpade(metric, Beta)
      ss.initialize(ArraySeq.unsafeWrapArray(initial))
      new Loaded(ss.spade, Some(ss))
    }

    def drive(s: Loaded, increments: Array[Tx], from: Int, until: Int, log: PassLog): Unit = {
      val ss = s.streaming.get
      (from until until by BatchRows).foreach { lo =>
        val batch = increments.slice(lo, math.min(until, lo + BatchRows))
        val batchId = log.counts.getOrElse("streaming.batches", 0L)
        log.beginJob(batch.last.ts)
        val ops = batch.map(log.handOff)
        log.attempt(ops.toSeq: _*) {
          val rep = log.timed("processBatch")(ss.processBatch(batchId, batch))
          log.reorder(rep.stats)
          log.community(rep.community)
          log.count("streaming.batches")
          log.count("streaming.newly_spotted", rep.newlySpotted.length)
          log.spotted(rep.newlySpotted)
          ops.foreach(log.visible)
        }
        log.endJob()
      }
    }
  }

  /** Table 4 at |ΔE| = 1 with real-time detection, plus refunds. Every
    * increment goes through `insertEdge`, `detect` and the suspects; DW
    * recovers only a few vertices per insert, so Detect dominates the
    * inserts. After every 10th benign increment (counted along the stream)
    * the benign increment 50 benign increments earlier is deleted: the only
    * workload on the deletion path. Customers refund ordinary purchases;
    * fraud blocks are fake accounts that do not, so refunds follow the base
    * arrival rate rather than the 8x bursts.
    */
  case object RefundDw extends Workload("refund-dw", Suspiciousness.DW, 200) {
    def drive(s: Loaded, increments: Array[Tx], from: Int, until: Int, log: PassLog): Unit = {
      val spade = s.spade
      val benign = increments.indices.filterNot(increments(_).isFraud).toArray
      var rank = java.util.Arrays.binarySearch(benign, from)
      if (rank < 0) rank = -rank - 1 // benign increments before `from`
      (from until until).foreach { i =>
        val t = increments(i)
        insertAndDetect(spade, t, log)
        if (!t.isFraud) {
          rank += 1
          if (rank % RefundEvery == 0) refund(spade, increments(benign(rank - 1 - RefundLag)), t.ts, log)
        }
      }
    }

    private def refund(spade: Spade, victim: Tx, at: Double, log: PassLog): Unit = {
      log.beginJob(at)
      val op = log.handOff(victim.copy(ts = at))
      log.attempt(op) {
        log.count("delete.calls")
        log.timed("deleteEdge")(spade.deleteEdge(victim.src, victim.dst)) match {
          case Some(st) =>
            log.count("delete.window_sum", st.emitted)
            log.count("delete.edges_touched_sum", st.edgesTouched)
          case None =>
            log.count("delete.missing")
            log.fail(op, "deleteEdge found no such edge")
        }
        log.suspects(log.timed("detectSuspects")(spade.detectSuspects(Beta)))
        log.visible(op)
      }
      log.endJob()
    }
  }

  /** One increment through `insertEdge`, then `detect` and the suspects. */
  private def insertAndDetect(spade: Spade, t: Tx, log: PassLog): Unit = {
    log.beginJob(t.ts)
    val op = log.handOff(t)
    log.attempt(op) {
      log.reorder(log.timed("insertEdge")(spade.insertEdge(t)))
      log.community(log.timed("detect")(spade.detect()))
      log.suspects(log.timed("detectSuspects")(spade.detectSuspects(Beta)))
      log.visible(op)
    }
    log.endJob()
  }

  val all: Seq[Workload] = Seq(GroupedFd, MicrobatchDg, RefundDw)

  def named(name: String): Option[Workload] = all.find(_.name == name)
}
