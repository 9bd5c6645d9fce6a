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

/** When `Spade.insertGrouped` flushes its buffer of pending edges. The
  * paper's `IncX-batch` and `IncXG` rows (Tables 4–5) differ only in this.
  */
sealed trait FlushPolicy

object FlushPolicy {

  /** Flush once `n` edges are pending (`IncX-batch`). */
  final case class Every(n: Int) extends FlushPolicy {
    require(n >= 1, s"flush size must be >= 1, got $n")
  }

  /** §4.3 edge grouping (`IncXG`): flush on an urgent edge (Definition 4.1)
    * or once `cap` edges are pending.
    */
  final case class Grouped(cap: Int = 1 << 20) extends FlushPolicy {
    require(cap >= 1, s"flush cap must be >= 1, got $cap")
  }
}

/** The Spade framework (Listing 1): incrementally maintains the peeling
  * sequence of an evolving transaction graph under a pluggable
  * suspiciousness metric, so `Detect` never recomputes from scratch.
  *
  *  - `loadGraph`          — bulk load + one static peel (Algorithm 1)
  *  - `insertEdge`         — §4.1 single-edge peeling-sequence reordering
  *  - `insertBatchEdges`   — §4.2 Algorithm 2 (batch reordering; black /
  *                           gray / white coloring avoids stale work)
  *  - `insertGrouped`      — the buffered entry point: edges wait until the
  *                           `FlushPolicy` flushes them through one batch
  *                           reorder and `detect` (§4.3 edge grouping by
  *                           default: an urgent edge flushes the buffer)
  *  - `deleteEdge`         — Appendix C.1: a forward cut, then the same
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
  *  - one merge kernel (`ReorderKernel`) serves single, batch and deletion
  *    updates;
  *  - the reorder rewrites only the blocks of the order it must edit and
  *    steps over the rest of its window; the tail is left untouched (this
  *    is where the microseconds come from);
  *  - updates are validated before anything is mutated, so a malformed edge
  *    rejects its whole batch and leaves the state as it was.
  */
final class Spade(val metric: Suspiciousness, val policy: FlushPolicy = FlushPolicy.Grouped()) {

  /** The evolving graph with materialized suspiciousness weights. */
  val graph = new DynGraph()

  private var _order: PeelOrder = PeelOrder.empty
  private var loaded = false

  // The merge kernel and its reusable scratch (allocation-free steady state).
  private val kernel = new ReorderKernel(graph)

  // ---- edge-grouping state (§4.3) ----
  private val pendingTxs = mutable.ArrayBuffer.empty[Tx]
  private val pendingInc = mutable.HashMap.empty[Int, Double]
  private var cachedDensity = 0.0
  // null after a delete: built from the order on the first read
  private var lastCommunity: Community = Community(0.0, Array.empty)

  /** The maintained peeling sequence (read-only view for tests/benches). */
  def order: PeelOrder = _order

  /** Number of edges currently buffered by `insertGrouped`. */
  def pendingCount: Int = pendingTxs.length

  /** Community from the most recent detect or flush (no recomputation).
    * A delete computes only its density (grouping's urgency test reads
    * that); its members are built from the order on the first read.
    */
  def community: Community = {
    if (lastCommunity == null) lastCommunity = _order.detect()
    lastCommunity
  }

  // ------------------------------------------------------------------
  // Loading
  // ------------------------------------------------------------------

  /** Bulk-load transactions (weights materialized in arrival order), then
    * run the static peeling once. Returns the initial community. The whole
    * load is validated first, edges and the priors of the vertices it
    * creates, so a malformed edge or prior rejects it before any change.
    */
  def loadGraph(txs: IterableOnce[Tx]): Community = {
    val all = txs.iterator.toArray
    val priors = validateAll(all)
    addVertices(priors)
    all.foreach(addTx)
    _order = StaticPeeling.peel(graph)
    loaded = true
    detect()
  }

  /** Validate every edge of an update, then return the priors of the vertex
    * ids it creates (`priorsUpTo` of its largest endpoint). Mutates nothing.
    */
  private def validateAll(txs: Iterable[Tx]): Array[Double] = {
    var maxId = -1
    val it = txs.iterator
    while (it.hasNext) {
      val t = it.next()
      validate(t)
      maxId = math.max(maxId, math.max(t.src, t.dst))
    }
    priorsUpTo(maxId)
  }

  /** The `vsusp` prior of every vertex id up to `maxId` that the graph does
    * not have yet (endpoints and any dense-id-space gap they force into
    * existence), index 0 being `numVertices`. Each is checked to be finite
    * and non-negative. Mutates nothing.
    */
  private def priorsUpTo(maxId: Int): Array[Double] = {
    val base = graph.numVertices
    if (maxId < base) return Array.emptyDoubleArray
    val priors = new Array[Double](maxId - base + 1)
    var i = 0
    while (i < priors.length) {
      val id = base + i
      val p = metric.vsusp(id, graph)
      require(p >= 0 && !p.isInfinite,
        s"${metric.name} vertex prior must be finite and non-negative, got $p for vertex $id")
      priors(i) = p
      i += 1
    }
    priors
  }

  /** Create the vertices `priorsUpTo` returned, with their priors. */
  private def addVertices(priors: Array[Double]): Unit = {
    if (priors.isEmpty) return
    val base = graph.numVertices
    graph.ensureVertex(base + priors.length - 1)
    var i = 0
    while (i < priors.length) { graph.setVertexWeight(base + i, priors(i)); i += 1 }
  }

  /** Add one transaction's edge with its `esusp` weight frozen now. Both
    * endpoints must exist.
    */
  private def addTx(t: Tx): Unit = graph.addEdge(t.src, t.dst, metric.esusp(t, graph))

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
  def detectSuspects(beta: Double = Spade.DefaultSpotBeta): Community = _order.detectThreshold(beta)

  /** Entries the last merge stepped over as whole blocks (for tests). */
  private[core] def lastSteppedOver: Int = kernel.lastSteppedOver

  /** Entries the last merge wrote into blocks of the order (for tests). */
  private[core] def lastWritten: Long = kernel.lastWritten

  // ------------------------------------------------------------------
  // Incremental insertion (§4.1 / §4.2)
  // ------------------------------------------------------------------

  /** Insert one edge and reorder the affected peeling subsequence (§4.1). */
  def insertEdge(t: Tx): ReorderStats = insertBatchEdges(Seq(t))

  /** Insert a batch of edges and reorder once (Algorithm 2). The whole batch
    * is validated first, edges and the priors of the vertices it creates, so
    * a malformed edge or prior rejects it before any change.
    */
  def insertBatchEdges(txs: Seq[Tx]): ReorderStats = {
    if (!loaded) { loadGraph(txs); return ReorderStats.zero }
    val priors = validateAll(txs)
    if (txs.isEmpty) return ReorderStats.zero
    val oldN = graph.numVertices
    addVertices(priors)

    // Materialize the updates; the black set is ΔV = edge endpoints plus
    // every new vertex id (including ids the dense id space forces into
    // existence between old max and a new endpoint — they are isolated,
    // weight-vsusp vertices that the merge will place at their correct
    // (weight, id) slot). New vertices are prepended to the sequence head
    // (§4.1 vertex insertion) and marked black so the merge interleaves
    // them exactly as a static re-peel would.
    kernel.newEpoch(graph.numVertices)
    var id = oldN
    while (id < graph.numVertices) {
      _order.prepend(id, graph.vertexWeight(id))
      kernel.markBlack(id)
      id += 1
    }
    txs.foreach { t =>
      addTx(t)
      kernel.markBlack(t.src)
      kernel.markBlack(t.dst)
    }
    kernel.mergeBlacks(_order, priors.length)
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

  /** Buffered insertion: `t` joins the buffer, and when the policy says so
    * the whole buffer goes through one batch reorder and the community is
    * re-detected (grouping's next urgency test reads that density). Returns
    * the reorder stats when a flush happened.
    */
  def insertGrouped(t: Tx): Option[ReorderStats] = {
    require(loaded, "call loadGraph before grouped insertion")
    validate(t)
    priorsUpTo(math.max(t.src, t.dst)) // checks the priors of the ids `t` creates
    pendingTxs += t
    val flush = policy match {
      case FlushPolicy.Every(n)     => pendingTxs.length >= n
      case FlushPolicy.Grouped(cap) => !isBenign(t) || pendingTxs.length >= cap
    }
    if (flush) {
      Some(flushPending())
    } else {
      val c = metric.esusp(t, graph)
      pendingInc(t.src) = pendingInc.getOrElse(t.src, 0.0) + c
      pendingInc(t.dst) = pendingInc.getOrElse(t.dst, 0.0) + c
      None
    }
  }

  /** Flush the buffer through one batch reorder and re-detect. */
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
    * The cut is the first index `j` in `[start, pi]` whose stored `Δ_j` is
    * at least `B`, where `pi` is the earlier endpoint's index and
    * `B = min(B_src, B_dst)`, `B_u = w'_u(S_pi)` being endpoint `u`'s
    * post-deletion weight against the vertices at or after `pi`. One
    * binary search over the order's running block max, then one block.
    *
    * Why the prefix before the cut stays: for `j < pi` both endpoints are in
    * `S_j`, and the deletion changes only their weights. Weights are
    * monotone in the active set, so `w'_u(S_j) ≥ w'_u(S_pi) = w_u(S_pi) - c
    * = B_u ≥ B`. Every other weight in `S_j` is unchanged, so a step with
    * `Δ_j < B` still peels its vertex, strictly before either endpoint (and
    * `j ≤ pi` exists: `Δ_pi = B_u + c > B` for the endpoint at `pi`). The
    * test is inclusive: at `Δ_j = B` the id tie-break may put an endpoint
    * first.
    *
    * This cut is never earlier than the paper's backward rule (walk left
    * from `pi` while the passed vertex's full-set weight `w(S_0)` is at
    * least `B`): that rule stops at a cut `c` with `w_{x_{c-1}}(S_0) < B`,
    * and for every `i < c`, `x_{c-1}` is in `S_i`, so
    * `Δ_i ≤ w_{x_{c-1}}(S_i) ≤ w_{x_{c-1}}(S_0) < B`.
    *
    * The forward phase is the insertion merge: both endpoints are hoisted
    * into the heap at the cut, and `ReorderKernel.mergeHoisted` moves them
    * (and whatever they overtake) earlier, stopping once its heap is empty.
    * The density of the new community is computed (grouping's urgency test
    * reads it); its members only when `community` is read.
    *
    * Returns None when the edge does not exist.
    */
  def deleteEdge(src: Int, dst: Int): Option[ReorderStats] = {
    require(loaded, "call loadGraph before deletion")
    val w = graph.removeEdge(src, dst)
    if (w.isNaN) return None

    val pi = math.min(_order.posOf(src), _order.posOf(dst))
    val b = math.min(weightFrom(src, pi), weightFrom(dst, pi))
    val cut = _order.firstAtLeast(b, pi)

    kernel.newEpoch(graph.numVertices)
    val stats = kernel.mergeHoisted(_order, cut, src, dst)
    cachedDensity = _order.density()
    lastCommunity = null
    Some(stats)
  }

  /** Peel weight of `u` against the vertices at or after index `from`. */
  private def weightFrom(u: Int, from: Int): Double = {
    graph.checkVertex(u)
    val w = sumFrom(graph.outNbrs(u), graph.outWts(u), graph.outCount(u), from, graph.vertexWeight(u))
    sumFrom(graph.inNbrs(u), graph.inWts(u), graph.inCount(u), from, w)
  }

  private def sumFrom(nbrs: Array[Int], ws: Array[Double], cnt: Int, from: Int, w0: Double): Double = {
    var w = w0
    var i = 0
    while (i < cnt) {
      if (_order.posOf(nbrs(i)) >= from) w += ws(i)
      i += 1
    }
    w
  }
}

object Spade {

  /** Default spotting threshold β of `detectSuspects`: a vertex is a suspect
    * when it sits in the largest suffix within 60% of the best density
    * (Fig. 14 semantics — equally dense instances are all reported).
    */
  val DefaultSpotBeta = 0.6
}
