package spadebench

import repro.core.{Community, ReorderStats, Tx}

import scala.collection.mutable
import scala.util.control.NonFatal

/** What one pass of a workload recorded.
  *
  * A *job* is one hand-off to Spade: the calls the workload loop makes for one
  * increment, one delete or one micro-batch. Its service time is the time
  * spent inside those calls. An *operation* is one transaction or delete;
  * it becomes visible at the end of the job whose last call made it part of
  * the reported suspect set. Vertices remember the first job after which a
  * suspect set held them (-1: before the first window).
  *
  * With a [[SpanLog]] the pass is traced: every timed call becomes a span
  * under its job's root `op` span.
  */
final class PassLog(val spans: Option[SpanLog], vertices: Int) {

  val jobArrival = mutable.ArrayBuffer.empty[Double]
  val jobServiceNs = mutable.ArrayBuffer.empty[Long]

  val opJob = mutable.ArrayBuffer.empty[Int]
  val opVisibleJob = mutable.ArrayBuffer.empty[Int]
  val opTx = mutable.ArrayBuffer.empty[Tx]
  val firstSeen: Array[Int] = Array.fill(vertices)(Int.MaxValue)

  /** The first job of each window of increments. */
  val windowStarts = mutable.ArrayBuffer.empty[Int]

  /** Deterministic counters; they must repeat exactly across passes. */
  val counts = mutable.LinkedHashMap.empty[String, Long]
  val failures = mutable.ArrayBuffer.empty[String]

  // set-up and end-of-pass measurements, filled in by the runner
  var collectNs, loadNs, setupNs, catchUpNs = 0L
  var rows, loadedVertices, loadedEdges = 0L
  var gcCount, gcMs = 0L
  var stateBytes = 0L
  var gate: Seq[String] = Nil

  private var job = -1
  private var rootSpan = -1

  def jobs: Int = jobArrival.length
  def ops: Int = opJob.length

  def beginWindow(): Unit = windowStarts += jobs

  /** Job ranges `[from, until)` of the windows. */
  def windows: Seq[(Int, Int)] = windowStarts.toSeq.zip(windowStarts.toSeq.drop(1) :+ jobs)

  def beginJob(arrival: Double): Unit = {
    job = jobs
    jobArrival += arrival
    jobServiceNs += 0L
    rootSpan = spans.fold(-1)(_.add("op", System.nanoTime(), 0L, -1, job))
  }

  def endJob(): Unit = spans.foreach(_.close(rootSpan, System.nanoTime()))

  /** Time one call into Spade as part of the current job. */
  def timed[A](name: String)(f: => A): A = timedAs(f)(_ => name)

  /** As [[timed]], naming the span after the call's result. */
  def timedAs[A](f: => A)(name: A => String): A = {
    val t0 = System.nanoTime()
    val r = f
    val t1 = System.nanoTime()
    jobServiceNs(job) += t1 - t0
    spans.foreach(_.add(name(r), t0, t1, rootSpan, job))
    r
  }

  /** Register an operation handed off in the current job. */
  def handOff(t: Tx): Int = {
    opJob += job
    opVisibleJob += -1
    opTx += t
    ops - 1
  }

  /** The operations become visible when the current job completes. */
  def visible(op: Int): Unit = opVisibleJob(op) = job

  /** Run the calls of operations `ops`; a throw counts each of them failed. */
  def attempt(ops: Int*)(body: => Unit): Unit =
    try body
    catch { case NonFatal(e) => ops.foreach(fail(_, e.toString)) }

  def fail(op: Int, why: String): Unit = {
    count("failed")
    if (failures.length < 5) failures += s"op $op (${opTx(op)}): $why"
  }

  def count(key: String, by: Long = 1): Unit = counts(key) = counts.getOrElse(key, 0L) + by
  def max(key: String, v: Long): Unit = counts(key) = math.max(counts.getOrElse(key, v), v)

  def reorder(st: ReorderStats): Unit = {
    count("reorder.calls")
    count("reorder.window_sum", st.emitted)
    count("reorder.recovered_sum", st.recovered)
    count("reorder.edges_touched_sum", st.edgesTouched)
  }

  def community(c: Community): Unit = {
    count("detect.calls")
    count("detect.community_size_sum", c.size)
  }

  def suspects(c: Community): Unit = {
    count("suspects.calls")
    count("suspects.size_sum", c.size)
    spotted(c.members)
  }

  /** Mark `members` as reported at the end of the current job. */
  def spotted(members: Array[Int]): Unit = members.foreach { v =>
    if (firstSeen(v) > job) firstSeen(v) = job
  }
}
