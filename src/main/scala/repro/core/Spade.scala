package repro.core

import scala.collection.mutable

/** Cost accounting for one incremental reorder — the "affected area"
  * `G_T = (V_T, E_T)` of §4.1.
  *
  * @param scanFrom    first absolute sequence index touched (Lemma 4.1 cut)
  * @param scanTo      one past the last touched index
  * @param emitted     vertices written back (|window|, = `|V_T|`)
  * @param recovered   vertices whose peel weight was recovered from adjacency
  * @param edgesTouched incident-edge visits during the reorder (≈ `|E_T|`)
  * @param newVertices  brand-new vertices prepended to the sequence head
  */
final case class ReorderStats(
    scanFrom: Int,
    scanTo: Int,
    emitted: Int,
    recovered: Int,
    edgesTouched: Long,
    newVertices: Int,
) {
  def windowSize: Int = emitted
  def merge(o: ReorderStats): ReorderStats = ReorderStats(
    math.min(scanFrom, o.scanFrom), math.max(scanTo, o.scanTo),
    emitted + o.emitted, recovered + o.recovered,
    edgesTouched + o.edgesTouched, newVertices + o.newVertices)
}

object ReorderStats {
  val zero: ReorderStats = ReorderStats(Int.MaxValue, Int.MinValue, 0, 0, 0L, 0)
}

/** The Spade framework (Listing 1): incrementally maintains the peeling
  * sequence of an evolving transaction graph under a pluggable
  * suspiciousness metric, so `Detect` never recomputes from scratch.
  *
  *  - `loadGraph`          — bulk load + one static peel (Algorithm 1)
  *  - `insertEdge`         — §4.1 single-edge peeling-sequence reordering
  *  - `insertBatchEdges`   — §4.2 Algorithm 2 (batch reordering; black /
  *                           gray / white coloring avoids stale work)
  *  - `insertGrouped`      — §4.3 edge grouping: benign edges buffer, an
  *                           urgent edge (Definition 4.1) flushes the buffer
  *  - `deleteEdge`         — Appendix C.1: a backward cut, then the same
  *                           merge with both endpoints hoisted to the cut
  *  - `detect`             — densest prefix community (a backward walk
  *                           that stops at the community, see `PeelOrder`)
  *
  * Implementation choices (see DESIGN.md):
  *  - weight *recovery* recomputes `w_v` from adjacency against the current
  *    active set (O(deg v)) instead of the paper's delta formula — the same
  *    `O(|E_T|)` bound, but immune to bookkeeping drift;
  *  - every heap breaks ties on `(weight, id)`, so the maintained sequence is
  *    *bit-identical* to a static re-peel of the updated weighted graph;
  *  - one merge kernel (`reorderWindow`) serves single, batch and deletion
  *    updates;
  *  - the reorder rewrites only the affected window of the sequence arrays;
  *    the tail is left untouched (this is where the microseconds come from);
  *  - updates are validated before anything is mutated, so a malformed edge
  *    rejects its whole batch and leaves the state as it was.
  */
final class Spade(val metric: Suspiciousness, val flushCap: Int = 1 << 20) {

  /** The evolving graph with materialized suspiciousness weights. */
  val graph = new DynGraph()

  private var _order: PeelOrder = PeelOrder.empty
  private var loaded = false

  // ---- reusable reorder scratch (allocation-free steady state) ----
  private val heap = new IndexedMinHeap()
  // Gray is reference-counted per *current* heap member (the paper's Case 2
  // requires adjacency to a member of T, not to anything that ever passed
  // through it): entrants bump their neighbors, pops decrement them. A
  // sticky mark would cascade recoveries through the whole scan window.
  private var grayEpoch = new Array[Int](16)
  private var grayCnt   = new Array[Int](16)
  private var blackMark = new Array[Int](16)
  private var epoch = 0
  private var bufV = new Array[Int](16)
  private var bufW = new Array[Double](16)

  // ---- edge-grouping state (§4.3) ----
  private val pendingTxs = mutable.ArrayBuffer.empty[Tx]
  private val pendingInc = mutable.HashMap.empty[Int, Double]
  private var cachedDensity = 0.0
  private var lastCommunity: Community = Community(0.0, Array.empty)

  /** The maintained peeling sequence (read-only view for tests/benches). */
  def order: PeelOrder = _order

  /** Number of benign edges currently buffered (grouped mode). */
  def pendingCount: Int = pendingTxs.length

  /** Community from the most recent detect/flush (no recomputation). */
  def community: Community = lastCommunity

  // ------------------------------------------------------------------
  // Loading
  // ------------------------------------------------------------------

  /** Bulk-load transactions (weights materialized in arrival order), then
    * run the static peeling once. Returns the initial community.
    */
  def loadGraph(txs: IterableOnce[Tx]): Community = {
    txs.iterator.foreach { t => applyTx(t); () }
    _order = StaticPeeling.peel(graph)
    loaded = true
    detect()
  }

  /** Materialize one transaction into the graph: every newly created vertex
    * id (endpoints and any dense-id-space gap they force into existence)
    * gets its `vsusp` prior, the edge gets its `esusp` weight frozen now.
    */
  private def applyTx(t: Tx): Unit = {
    val oldN = graph.numVertices
    graph.ensureVertex(math.max(t.src, t.dst))
    var id = oldN
    while (id < graph.numVertices) {
      graph.setVertexWeight(id, metric.vsusp(id, graph))
      id += 1
    }
    val c = metric.esusp(t, graph)
    graph.addEdge(t.src, t.dst, c)
  }

  // ------------------------------------------------------------------
  // Detection
  // ------------------------------------------------------------------

  /** Recompute the densest prefix community and cache it. The walk costs
    * O(|community| + 256) once the community stands out, O(|V|) at worst.
    */
  def detect(): Community = {
    lastCommunity = _order.detect()
    cachedDensity = lastCommunity.density
    lastCommunity
  }

  /** Spotting variant (Fig. 14): every vertex in the largest suffix within
    * `beta` of the best density — equally dense fraud instances are all
    * reported, not only the single argmax. Same pruned walk as `detect`.
    */
  def detectSuspects(beta: Double = 0.6): Community = _order.detectThreshold(beta)

  // ------------------------------------------------------------------
  // Incremental insertion (§4.1 / §4.2)
  // ------------------------------------------------------------------

  /** Insert one edge and reorder the affected peeling subsequence (§4.1). */
  def insertEdge(t: Tx): ReorderStats = insertBatchEdges(Seq(t))

  /** Insert a batch of edges and reorder once (Algorithm 2). The whole batch
    * is validated first, so a malformed edge rejects it before any change.
    */
  def insertBatchEdges(txs: Seq[Tx]): ReorderStats = {
    txs.foreach(validate)
    if (!loaded) { loadGraph(txs); return ReorderStats.zero }
    if (txs.isEmpty) return ReorderStats.zero

    // Materialize the updates; collect the black set: ΔV = edge endpoints
    // plus every newly materialized vertex id (including ids the dense id
    // space forces into existence between old max and a new endpoint —
    // they are isolated, weight-vsusp vertices that the merge will place
    // at their correct (weight, id) slot). New vertices are prepended to
    // the sequence head (§4.1 vertex insertion) and marked black so the
    // merge interleaves them exactly as a static re-peel would.
    epoch += 1
    val blacks = new mutable.ArrayBuffer[Int](2 * txs.length)
    var newVerts = 0
    txs.foreach { t =>
      val oldN = graph.numVertices
      applyTx(t)
      growMarks(graph.numVertices)
      var id = oldN
      while (id < graph.numVertices) {
        _order.prepend(id, graph.vertexWeight(id))
        if (blackMark(id) != epoch) { blackMark(id) = epoch; blacks += id }
        newVerts += 1
        id += 1
      }
      if (blackMark(t.src) != epoch) { blackMark(t.src) = epoch; blacks += t.src }
      if (blackMark(t.dst) != epoch) { blackMark(t.dst) = epoch; blacks += t.dst }
    }
    val blackPos = blacks.map(_order.posOf).toArray
    java.util.Arrays.sort(blackPos)
    reorderWindow(blackPos(0), Array.emptyIntArray, blackPos, newVerts)
  }

  /** Reject a transaction that the graph or the metric cannot take: a
    * negative id, a self-loop, or an edge weight that is not finite and
    * positive. Runs before anything is mutated.
    */
  private def validate(t: Tx): Unit = {
    require(t.src >= 0 && t.dst >= 0, s"vertex ids must be non-negative: $t")
    require(t.src != t.dst, s"self-loop rejected: $t")
    val c = metric.esusp(t, graph)
    require(c > 0 && !c.isInfinite, s"${metric.name} edge weight must be finite and positive, got $c for $t")
  }

  /** The merge kernel behind every update (§4.1, Algorithm 2, Appendix C.1).
    * The scan starts at `cut`. `hoisted` vertices enter the heap there
    * (deletion's endpoints, whose weight fell); every other black vertex
    * enters when the scan reaches its slot in `blackPos` (sorted). All of
    * them must already be marked black with the current epoch.
    *
    * Insertion only raises weights, so a vertex never pops before the scan
    * reaches its slot. A hoisted vertex can: it is *emitted early*, leaves
    * the active set at once (`PeelOrder.vacate`), and its old slot becomes a
    * hole that the scan skips. Its neighbours at or after the frontier still
    * count it in their stored `Δ`, so they enter the heap too.
    */
  private def reorderWindow(cut: Int, hoisted: Array[Int], blackPos: Array[Int],
                            newVerts: Int): ReorderStats = {
    val end = _order.end

    heap.clear()
    var k = cut
    var windowStart = cut
    var bufLen = 0
    var recovered = 0
    var emittedTotal = 0
    var edgesTouched = 0L
    var bpIdx = 0
    var ahead = 0 // heap members whose slot the scan has not reached yet

    @inline def isGray(v: Int): Boolean = grayEpoch(v) == epoch && grayCnt(v) > 0

    @inline def bumpGray(x: Int): Unit = {
      if (grayEpoch(x) != epoch) { grayEpoch(x) = epoch; grayCnt(x) = 0 }
      grayCnt(x) += 1
    }

    // A vertex is still *active* (unpeeled in the order being built) iff it
    // is pending in the heap, or it sits at/after the scan frontier. Emitted
    // and jump-skipped vertices have (possibly stale) positions strictly
    // before the frontier, and an early-emitted one has none, so one
    // position test covers them all.
    @inline def active(x: Int): Boolean = heap.contains(x) || _order.posOf(x) >= k

    // A *white* vertex is by construction not adjacent to any heap member
    // (it would have been grayed when that member entered), so emitting it
    // needs no adjacency walk — this is what makes the affected area
    // O(|E_T|) instead of O(window × avg degree). Only heap pops walk their
    // adjacency to decrement remaining members (the paper's Case 1).
    def emitWhite(v: Int, w: Double): Unit = {
      if (bufLen == bufV.length) {
        bufV = java.util.Arrays.copyOf(bufV, bufLen * 2)
        bufW = java.util.Arrays.copyOf(bufW, bufLen * 2)
      }
      bufV(bufLen) = v; bufW(bufLen) = w; bufLen += 1
    }

    def emitPopped(v: Int, w: Double): Unit = {
      emitWhite(v, w)
      // Only a vertex that entered ahead of its slot can pop before it; the
      // counter spares insertion a position lookup per pop.
      val early = ahead > 0 && _order.posOf(v) >= k
      if (early) { ahead -= 1; _order.vacate(v) }
      graph.foreachIncident(v) { (x, c) =>
        edgesTouched += 1
        if (heap.contains(x)) heap.addTo(x, -c)
        if (grayEpoch(x) == epoch) grayCnt(x) -= 1
      }
      if (early) enterOvertaken(v)
    }

    // The neighbours of an early-emitted `v` at or after the frontier still
    // count it in their stored Δ, so they enter the heap. They enter after
    // the decrements above: recovery already leaves `v` out, so a parallel
    // edge to `v` must not be subtracted twice.
    def enterOvertaken(v: Int): Unit =
      graph.foreachIncident(v) { (x, _) =>
        edgesTouched += 1
        if (!heap.contains(x) && _order.posOf(x) >= k) {
          blackMark(x) = epoch
          enterAhead(x)
        }
      }

    def enterHeap(v: Int): Unit = {
      var w = graph.vertexWeight(v)
      graph.foreachIncident(v) { (x, c) =>
        edgesTouched += 1
        if (active(x)) w += c
        bumpGray(x)
      }
      recovered += 1
      heap.insert(v, w)
    }

    def enterAhead(v: Int): Unit = {
      enterHeap(v)
      ahead += 1
    }

    @inline def headBefore(v: Int, kw: Double): Boolean = {
      val mk = heap.minKey
      mk < kw || (mk == kw && heap.minId < v)
    }

    def popHead(): Unit = {
      val w = heap.minKey
      emitPopped(heap.popMin(), w)
    }

    def flush(upTo: Int): Unit = {
      assert(bufLen == upTo - windowStart,
        s"window accounting broken: buffered $bufLen vs span ${upTo - windowStart}")
      var i = 0
      while (i < bufLen) { _order.set(windowStart + i, bufV(i), bufW(i)); i += 1 }
      emittedTotal += bufLen
      bufLen = 0
      windowStart = upTo
    }

    hoisted.foreach(enterAhead)
    var done = false
    while (!done) {
      // Jump or stop only when balanced: an empty heap and no hole ahead
      // (every early-emitted vertex's slot already passed).
      if (heap.isEmpty && bufLen == k - windowStart) {
        while (bpIdx < blackPos.length && blackPos(bpIdx) < k) bpIdx += 1
        if (bpIdx >= blackPos.length) {
          flush(k)
          done = true // tail [k, end) untouched — Lemma 4.1 in reverse
        } else {
          val nb = blackPos(bpIdx)
          if (nb > k) { flush(k); windowStart = nb; k = nb }
          enterHeap(_order.vertexAt(k))
          k += 1
          bpIdx += 1
        }
      } else if (k >= end) {
        popHead()
      } else {
        val v = _order.vertexAt(k)
        val kw = _order.weightAt(k)
        val black = blackMark(v) == epoch
        if (black && (heap.contains(v) || _order.posOf(v) != k)) {
          // Hole: `v` entered the heap before its slot. Its stored Δ_k is
          // stale and must not decide a pop.
          if (heap.contains(v)) ahead -= 1
          k += 1
        } else if (heap.nonEmpty && headBefore(v, kw)) {
          // Case 1: the pending head is the global minimum (Lemma 4.2)
          popHead()
        } else if (black || isGray(v)) {
          // Case 2(a): stored Δ_k may be stale — recover and enqueue
          enterHeap(v)
          k += 1
        } else {
          // Case 2(b)/3: white vertex, stored Δ_k is exact and minimal
          emitWhite(v, kw)
          k += 1
        }
      }
    }
    ReorderStats(cut, k, emittedTotal, recovered, edgesTouched, newVerts)
  }

  private def growMarks(n: Int): Unit = {
    if (n > grayEpoch.length) {
      val cap = math.max(grayEpoch.length * 2, n)
      grayEpoch = java.util.Arrays.copyOf(grayEpoch, cap)
      grayCnt   = java.util.Arrays.copyOf(grayCnt, cap)
      blackMark = java.util.Arrays.copyOf(blackMark, cap)
    }
  }

  // ------------------------------------------------------------------
  // Edge grouping (§4.3)
  // ------------------------------------------------------------------

  /** `w_u(S_0)` including buffered-but-unflushed contributions. */
  private def w0(v: Int): Double = {
    val base =
      if (v < graph.numVertices) graph.incidentWeight(v)
      else metric.vsusp(v, graph)
    base + pendingInc.getOrElse(v, 0.0)
  }

  /** Definition 4.1: an edge is benign iff *both* endpoints satisfy
    * `w_u(S_0) + c < g(S^P)` — it can then neither join nor improve the
    * densest community (Lemmas 4.3 / 4.4). Urgent edges are everything else.
    */
  def isBenign(t: Tx): Boolean = {
    val c = metric.esusp(t, graph)
    w0(t.src) + c < cachedDensity && w0(t.dst) + c < cachedDensity
  }

  /** Grouped insertion: benign edges buffer; an urgent edge (or a full
    * buffer) triggers one batch reorder of everything pending and refreshes
    * the community. Returns the reorder stats when a flush happened.
    */
  def insertGrouped(t: Tx): Option[ReorderStats] = {
    require(loaded, "call loadGraph before grouped insertion")
    validate(t)
    val urgent = !isBenign(t)
    pendingTxs += t
    if (urgent || pendingTxs.length >= flushCap) {
      Some(flushPending())
    } else {
      val c = metric.esusp(t, graph)
      pendingInc(t.src) = pendingInc.getOrElse(t.src, 0.0) + c
      pendingInc(t.dst) = pendingInc.getOrElse(t.dst, 0.0) + c
      None
    }
  }

  /** Flush the benign buffer through one batch reorder and re-detect. */
  def flushPending(): ReorderStats = {
    if (pendingTxs.isEmpty) return ReorderStats.zero
    val stats = insertBatchEdges(pendingTxs.toSeq)
    pendingTxs.clear()
    pendingInc.clear()
    detect()
    stats
  }

  // ------------------------------------------------------------------
  // Edge deletion (Appendix C.1 extension)
  // ------------------------------------------------------------------

  /** Delete one occurrence of (src, dst) and repair the sequence.
    *
    * The backward phase finds the cut per the paper's stopping rule: walk
    * left from the earlier endpoint while the *full-set* weight `w_u(S_0)`
    * of the passed vertex exceeds `B`, the smaller post-deletion weight of
    * the two endpoints at the earlier endpoint's step (weights are monotone
    * in the active set, so `w(S_0) <= B` proves the whole remaining prefix
    * is unaffected). The forward phase is the insertion merge: both
    * endpoints are marked black and hoisted into the heap at the cut, and
    * `reorderWindow` moves them (and whatever they overtake) earlier.
    *
    * Returns None when the edge does not exist.
    */
  def deleteEdge(src: Int, dst: Int): Option[ReorderStats] = {
    require(loaded, "call loadGraph before deletion")
    val w = graph.removeEdge(src, dst)
    if (w.isNaN) return None

    val pi = math.min(_order.posOf(src), _order.posOf(dst))
    val activeAtPi = (x: Int) => _order.posOf(x) >= pi
    val b = math.min(graph.peelWeight(src)(activeAtPi), graph.peelWeight(dst)(activeAtPi))

    // Inclusive at ties (`>=`): with exact equal weights the id tie-break
    // may move an endpoint before a tied prefix vertex, so tied positions
    // must be re-merged too.
    var cut = pi
    while (cut > _order.start && graph.incidentWeight(_order.vertexAt(cut - 1)) >= b) cut -= 1

    epoch += 1
    growMarks(graph.numVertices)
    blackMark(src) = epoch
    blackMark(dst) = epoch
    val stats = reorderWindow(cut, Array(src, dst), Array.emptyIntArray, 0)
    detect()
    Some(stats)
  }
}
