package repro.core

/** Cost accounting for one incremental reorder — the "affected area"
  * `G_T = (V_T, E_T)` of §4.1.
  *
  * @param scanFrom    first absolute sequence index touched (Lemma 4.1 cut)
  * @param emitted     vertices written back (|window|, = `|V_T|`)
  * @param recovered   vertices whose peel weight was recovered from adjacency
  * @param edgesTouched incident-edge visits during the reorder (≈ `|E_T|`)
  */
final case class ReorderStats(
    scanFrom: Int,
    emitted: Int,
    recovered: Int,
    edgesTouched: Long,
)

object ReorderStats {
  val zero: ReorderStats = ReorderStats(Int.MaxValue, 0, 0, 0L)
}

/** When `Spade.insertGrouped` reorders its pending edges. The paper's
  * `IncX-batch` and `IncXG` rows (Tables 4–5) differ only in this.
  */
sealed trait FlushPolicy

object FlushPolicy {

  /** Flush once `n` edges are pending (`IncX-batch`). */
  final case class Every(n: Int) extends FlushPolicy {
    require(n >= 1, s"flush size must be >= 1, got $n")
  }

  /** §4.3 edge grouping (`IncXG`): flush on an urgent edge (Definition 4.1). */
  case object Grouped extends FlushPolicy
}

/** The Spade framework (Listing 1): incrementally maintains the peeling
  * sequence of an evolving transaction graph under a pluggable
  * suspiciousness metric, so `Detect` never recomputes from scratch.
  *
  *  - `loadGraph`          — bulk load + one static peel (Algorithm 1); a
  *                           new Spade is empty and takes updates without it
  *  - `insertEdge`         — §4.1 single-edge peeling-sequence reordering
  *  - `insertBatchEdges`   — §4.2 Algorithm 2 (batch reordering; black /
  *                           gray / white coloring avoids stale work)
  *  - `insertGrouped`      — the grouped entry point: the edge enters the
  *                           graph at once, and its reorder waits until the
  *                           `FlushPolicy` flushes every pending edge through
  *                           one batch reorder and `detect` (§4.3 edge
  *                           grouping by default: an urgent edge flushes)
  *  - `deleteEdge`         — Appendix C.1: a forward cut, then the same
  *                           merge with both endpoints hoisted to the cut
  *  - `detect`             — densest prefix community (a backward walk
  *                           that stops past the suspects, see `PeelOrder`;
  *                           `detectSuspects` reads the same walk)
  *
  * Every insertion adds its edges to `graph` when it is called (`add`) and
  * reorders later (`reorder`): at once for `insertEdge` and
  * `insertBatchEdges`, at the flush for `insertGrouped`. Until then the
  * order is as it was, and the pending edges' endpoints are its only stale
  * entries; `deleteEdge` and the batch entry points reorder them first.
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
final class Spade(val metric: Suspiciousness, val policy: FlushPolicy = FlushPolicy.Grouped) {

  /** The evolving graph with materialized suspiciousness weights, pending
    * edges included.
    */
  val graph = new DynGraph()

  private var _order: PeelOrder = PeelOrder.empty

  // The merge kernel and its reusable scratch (allocation-free steady state).
  private[core] val kernel = new ReorderKernel(graph)

  // Both endpoints of every edge added since the last reorder, in pairs:
  // the black set of the next reorder.
  private var pendingEnds = new Array[Int](16)
  private var nPendingEnds = 0
  private var cachedDensity = 0.0
  // null after a delete: built from the order on the first read
  private var lastCommunity: Community = Community(0.0, Array.empty)

  /** The maintained peeling sequence (read-only view for tests/benches). */
  def order: PeelOrder = _order

  /** Number of edges in the graph that the order does not reflect yet. */
  def pendingCount: Int = nPendingEnds / 2

  /** Community from the most recent detect or flush (no recomputation).
    * A delete computes only its density (grouping's urgency test reads
    * that); its members are built on the first read, from the walk the
    * order kept for that density.
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
    * The static peel takes in any pending edges, so none are left. The
    * graph, the order and the merge kernel are sized for the loaded ids
    * plus `Growth`'s head room, so the first new accounts copy no array.
    */
  def loadGraph(txs: IterableOnce[Tx]): Community = {
    val all = txs.iterator.toArray
    val priors = validateAll(all)
    addVertices(priors)
    all.foreach(t => graph.addEdge(t.src, t.dst, metric.esusp(t, graph)))
    nPendingEnds = 0
    _order = StaticPeeling.peel(graph)
    kernel.reserve(graph.numVertices, _order.blockCapacity)
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

  /** Add `t`'s edge with its `esusp` weight `c`, frozen now, and make both
    * endpoints black for the next `reorder`. Both endpoints must exist.
    */
  private def add(t: Tx, c: Double): Unit = {
    graph.addEdge(t.src, t.dst, c)
    if (nPendingEnds + 2 > pendingEnds.length) pendingEnds = java.util.Arrays.copyOf(pendingEnds, 2 * pendingEnds.length)
    pendingEnds(nPendingEnds) = t.src
    pendingEnds(nPendingEnds + 1) = t.dst
    nPendingEnds += 2
  }

  /** Bring the order up to the graph in one merge (Algorithm 2). The black
    * set is ΔV: the pending endpoints plus every vertex id the order lacks
    * (including ids the dense id space forces into existence between old
    * max and a new endpoint — they are isolated, weight-vsusp vertices that
    * the merge places at their correct (weight, id) slot). New vertices are
    * prepended to the sequence head (§4.1 vertex insertion) and marked
    * black so the merge interleaves them exactly as a static re-peel would.
    */
  private def reorder(): ReorderStats = {
    if (nPendingEnds == 0) return ReorderStats.zero
    kernel.newEpoch(graph.numVertices)
    var id = _order.length
    while (id < graph.numVertices) {
      _order.prepend(id, graph.vertexWeight(id))
      kernel.markBlack(id)
      id += 1
    }
    var i = 0
    while (i < nPendingEnds) { kernel.markBlack(pendingEnds(i)); i += 1 }
    nPendingEnds = 0
    kernel.mergeBlacks(_order)
  }

  // ------------------------------------------------------------------
  // Detection
  // ------------------------------------------------------------------

  /** Recompute the densest prefix community and cache it. The walk runs
    * at the spotting β and the order keeps it until it changes, so the
    * suspects after it cost no second walk. It costs O(|suspects| + 256)
    * once the community stands out (the suspect suffix holds the
    * community), O(|V|) at worst.
    */
  def detect(): Community = {
    lastCommunity = _order.detect()
    cachedDensity = lastCommunity.density
    lastCommunity
  }

  /** Spotting variant (Fig. 14): every vertex in the largest suffix within
    * `beta` of the best density — equally dense fraud instances are all
    * reported, not only the single argmax. At the default β this is the
    * walk `detect` ran, kept by the order; another β walks afresh.
    */
  def detectSuspects(beta: Double = Spade.DefaultSpotBeta): Community = _order.detectThreshold(beta)

  // ------------------------------------------------------------------
  // Incremental insertion (§4.1 / §4.2)
  // ------------------------------------------------------------------

  /** Insert one edge and reorder the affected peeling subsequence (§4.1). */
  def insertEdge(t: Tx): ReorderStats = insertBatchEdges(Seq(t))

  /** Insert a batch of edges and reorder once (Algorithm 2), pending edges
    * included. The whole batch is validated first, edges and the priors of
    * the vertices it creates, so a malformed edge or prior rejects it
    * before any change.
    */
  def insertBatchEdges(txs: Seq[Tx]): ReorderStats = {
    addVertices(validateAll(txs))
    txs.foreach(t => add(t, metric.esusp(t, graph)))
    reorder()
  }

  /** Reject a transaction that the graph or the metric cannot take: a
    * negative id, a self-loop, or an edge weight that is not finite and
    * positive. Runs before anything is mutated; returns the weight.
    */
  private def validate(t: Tx): Double = {
    require(t.src >= 0 && t.dst >= 0, s"vertex ids must be non-negative: $t")
    require(t.src != t.dst, s"self-loop rejected: $t")
    val c = metric.esusp(t, graph)
    require(c > 0 && !c.isInfinite, s"${metric.name} edge weight must be finite and positive, got $c for $t")
    c
  }

  // ------------------------------------------------------------------
  // Edge grouping (§4.3)
  // ------------------------------------------------------------------

  /** `w_u(S_0)`: `u`'s weight in the whole graph, pending edges included. */
  private def w0(u: Int): Double =
    if (u < graph.numVertices) graph.incidentWeight(u) else metric.vsusp(u, graph)

  /** Definition 4.1: an edge is benign iff *both* endpoints satisfy
    * `w_u(S_0) + c < g(S^P)` — it can then neither join nor improve the
    * densest community (Lemmas 4.3 / 4.4). Urgent edges are everything else.
    */
  def isBenign(t: Tx): Boolean = benign(t, metric.esusp(t, graph))

  private def benign(t: Tx, c: Double): Boolean =
    w0(t.src) + c < cachedDensity && w0(t.dst) + c < cachedDensity

  /** Grouped insertion: `t`'s edge enters the graph now, and when the
    * policy says so every pending edge goes through one batch reorder and
    * the community is re-detected (grouping's next urgency test reads that
    * density). Returns the reorder stats when a flush happened.
    */
  def insertGrouped(t: Tx): Option[ReorderStats] = {
    val c = validate(t)
    addVertices(priorsUpTo(math.max(t.src, t.dst)))
    val flush = policy match {
      case FlushPolicy.Every(n) => pendingCount + 1 >= n
      case FlushPolicy.Grouped  => !benign(t, c)
    }
    add(t, c)
    if (flush) Some(flushPending()) else None
  }

  /** Reorder every pending edge in one batch and re-detect. */
  def flushPending(): ReorderStats = {
    if (nPendingEnds == 0) return ReorderStats.zero
    val stats = reorder()
    detect()
    stats
  }

  // ------------------------------------------------------------------
  // Edge deletion (Appendix C.1 extension)
  // ------------------------------------------------------------------

  /** Delete one occurrence of (src, dst) and repair the sequence. Pending
    * edges are reordered first, so a still-pending edge is deleted like any
    * other.
    *
    * The cut is the first index `j` in `[start, pi]` whose stored `Δ_j` is
    * at least `B`, where `pi` is the earlier endpoint's index and
    * `B = min(B_src, B_dst)`, `B_u = w'_u(S_pi)` being endpoint `u`'s
    * post-deletion weight against the vertices at or after `pi`. One walk
    * over the order's running block max, then one block.
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
    reorder()
    val w = graph.removeEdge(src, dst)
    if (w.isNaN) return None

    val first = if (_order.posOf(src) <= _order.posOf(dst)) src else dst
    val pi = _order.posOf(first)
    val atOrAfterPi: Int => Boolean = x => _order.posOf(x) >= pi
    val b = math.min(graph.peelWeight(src)(atOrAfterPi), graph.peelWeight(dst)(atOrAfterPi))
    val cut = _order.firstAtLeast(b, _order.locOf(first))

    kernel.newEpoch(graph.numVertices)
    val stats = kernel.mergeHoisted(_order, cut, src, dst)
    cachedDensity = _order.density()
    lastCommunity = null
    Some(stats)
  }
}

object Spade {

  /** Default spotting threshold β of `detectSuspects`: a vertex is a suspect
    * when it sits in the largest suffix within 60% of the best density
    * (Fig. 14 semantics — equally dense instances are all reported).
    */
  val DefaultSpotBeta: Double = PeelOrder.SpotBeta
}
