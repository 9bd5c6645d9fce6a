package repro.core

/** The merge kernel behind every update (§4.1, Algorithm 2, Appendix C.1).
  *
  * An update opens an epoch (`newEpoch`), marks its black vertices, and runs
  * one merge: `mergeBlacks` for insertion (every black vertex enters the heap
  * when the scan reaches its slot) or `mergeHoisted` for deletion (both
  * endpoints enter the heap at the cut).
  *
  * Insertion only raises weights, so a vertex never pops before the scan
  * reaches its slot. A hoisted vertex can: it is *emitted early*, leaves
  * the active set at once (`PeelOrder.vacate`), and its old slot becomes a
  * hole that the scan skips. Its neighbours at or after the frontier still
  * count it in their stored `Δ`, so they enter the heap too.
  *
  * Emitted entries are written straight back into the order behind the
  * read cursor. A white run moves a block at a time: the rest of a
  * 256-entry block of the order (`PeelOrder.BlockBits`) is shifted left in
  * one move when the block holds no black, gray or hole entry and its max
  * `Δ` is strictly below the heap's min key, since then every entry of it is
  * a white that Case 1 cannot interrupt. Black, gray and hole entries stamp
  * their block with the epoch as they arise; a stamp is sticky, which only
  * ever sends a block back to the per-entry path.
  *
  * Every piece of the merge's state (cursors, window, counters) is a field,
  * and adjacency is walked with `while` loops over `DynGraph`'s raw arrays,
  * so a merge allocates nothing per vertex: no captured-variable boxes and
  * no closures. The scratch arrays only grow.
  */
private[core] final class ReorderKernel(graph: DynGraph) {

  private val heap = new IndexedMinHeap()
  // Gray is reference-counted per *current* heap member (the paper's Case 2
  // requires adjacency to a member of T, not to anything that ever passed
  // through it): entrants bump their neighbors, pops decrement them. A
  // sticky mark would cascade recoveries through the whole scan window.
  private var grayEpoch = new Array[Int](16)
  private var grayCnt   = new Array[Int](16)
  private var blackMark = new Array[Int](16)
  private var epoch = 0
  // This epoch's black vertices (`markBlack`); `mergeBlacks` turns them
  // into their sorted positions in place.
  private var blacks = new Array[Int](16)
  private var nBlacks = 0
  // blockStamp(b) == epoch: block b of the order holds a black, gray or
  // hole entry ahead of the frontier, so it cannot move whole.
  private var blockStamp = new Array[Int](16)
  // Emitted entries wait here only while an early-emitted vertex's hole
  // lies ahead: the write cursor may then pass the read cursor.
  private var bufV = new Array[Int](16)
  private var bufW = new Array[Double](16)

  // ---- state of the running merge ----
  private var order: PeelOrder = _
  private var k = 0           // scan frontier: next absolute index to read
  private var wr = 0          // write cursor: next absolute index to emit to
  private var windowStart = 0 // first index of the current window
  private var nextCheck = 0   // the next index at which to try a block move
  private var bufStart = 0    // index that `bufV(0)` is written to
  private var bufLen = 0
  private var recovered = 0
  private var emittedTotal = 0
  private var edgesTouched = 0L
  private var ahead = 0      // heap members whose slot the scan has not reached yet
  private var holesAhead = 0 // early-emitted vertices whose slot the scan has not reached yet
  private var blockMoved = 0

  /** Entries the last merge moved by whole blocks (part of `emitted`). */
  private[core] def lastBlockMoved: Int = blockMoved

  /** Start an update over vertex ids `0 until n`: no vertex is black or gray. */
  def newEpoch(n: Int): Unit = {
    epoch += 1
    nBlacks = 0
    if (n > grayEpoch.length) {
      val cap = math.max(grayEpoch.length * 2, n)
      grayEpoch = java.util.Arrays.copyOf(grayEpoch, cap)
      grayCnt   = java.util.Arrays.copyOf(grayCnt, cap)
      blackMark = java.util.Arrays.copyOf(blackMark, cap)
    }
  }

  /** Mark `v` black: it enters the heap when the scan reaches its slot. */
  def markBlack(v: Int): Unit =
    if (blackMark(v) != epoch) {
      blackMark(v) = epoch
      if (nBlacks == blacks.length) blacks = java.util.Arrays.copyOf(blacks, 2 * nBlacks)
      blacks(nBlacks) = v
      nBlacks += 1
    }

  /** Insertion merge: the scan starts at the first black vertex's slot and
    * recovers every black vertex at its own slot. At least one vertex must
    * be marked black.
    */
  def mergeBlacks(o: PeelOrder, newVerts: Int): ReorderStats = {
    var i = 0
    while (i < nBlacks) { blacks(i) = o.posOf(blacks(i)); i += 1 }
    java.util.Arrays.sort(blacks, 0, nBlacks)
    val cut = blacks(0)
    begin(o, cut)
    i = 0
    while (i < nBlacks) { stamp(blacks(i)); i += 1 }
    run(cut, newVerts)
  }

  /** Deletion merge: `src` and `dst` are marked black and enter the heap at
    * `cut`, ahead of their slots.
    */
  def mergeHoisted(o: PeelOrder, cut: Int, src: Int, dst: Int): ReorderStats = {
    blackMark(src) = epoch
    blackMark(dst) = epoch
    begin(o, cut)
    enterAhead(src)
    enterAhead(dst)
    run(cut, 0)
  }

  private def begin(o: PeelOrder, cut: Int): Unit = {
    heap.clear()
    order = o
    // A block move trusts the block max of every block ahead of the
    // frontier; the ones the last merges wrote (or prepends added) are
    // re-scanned here, unless a walk already did.
    o.refreshBlocks()
    if (blockStamp.length < o.blockCount)
      blockStamp = java.util.Arrays.copyOf(blockStamp, math.max(blockStamp.length * 2, o.blockCount))
    k = cut
    wr = cut
    windowStart = cut
    nextCheck = cut
    bufLen = 0
    recovered = 0
    emittedTotal = 0
    edgesTouched = 0L
    ahead = 0
    holesAhead = 0
    blockMoved = 0
  }

  /** The block of index `p` cannot move whole in this merge. */
  @inline private def stamp(p: Int): Unit = blockStamp(p >> PeelOrder.BlockBits) = epoch

  private def run(cut: Int, newVerts: Int): ReorderStats = {
    val end = order.end
    var bp = 0 // next entry of `blacks(0 until nBlacks)`, sorted positions
    var done = false
    while (!done) {
      // Jump or stop only when balanced: an empty heap and every entry
      // read also written (so every early-emitted vertex's slot passed).
      if (heap.isEmpty && wr == k) {
        while (bp < nBlacks && blacks(bp) < k) bp += 1
        if (bp >= nBlacks) {
          close(k)
          done = true // tail [k, end) untouched — Lemma 4.1 in reverse
        } else {
          val nb = blacks(bp)
          if (nb > k) { close(k); windowStart = nb; k = nb; wr = nb }
          enterHeap(order.vertexAt(k))
          k += 1
          bp += 1
        }
      } else if (k >= end) {
        popHead()
      } else if (k < nextCheck || !moveBlock(end)) {
        val v = order.vertexAt(k)
        val kw = order.weightAt(k)
        val black = blackMark(v) == epoch
        if (black && (heap.contains(v) || order.posOf(v) != k)) {
          // Hole: `v` entered the heap before its slot. Its stored Δ_k is
          // stale and must not decide a pop.
          k += 1
          if (heap.contains(v)) ahead -= 1
          else {
            holesAhead -= 1
            if (holesAhead == 0) drain()
          }
        } else if (heap.nonEmpty && headBefore(v, kw)) {
          // Case 1: the pending head is the global minimum (Lemma 4.2)
          popHead()
        } else if (black || isGray(v)) {
          // Case 2(a): stored Δ_k may be stale — recover and enqueue
          enterHeap(v)
          k += 1
        } else {
          // Case 2(b)/3: white vertex, stored Δ_k is exact and minimal
          emit(v, kw)
          k += 1
        }
      }
    }
    order = null // `Spade.loadGraph` may replace the order between merges
    ReorderStats(cut, k, emittedTotal, recovered, edgesTouched, newVerts)
  }

  /** Emit the rest of the frontier's block, `[k, e)`, in one move if every
    * entry of it is a white that Case 1 cannot interrupt: no black, gray or
    * hole entry (no stamp), and a block max strictly below the heap's min
    * key (ties fall back, since the id tie-break may pop first). No heap
    * entry and no pop can then happen inside it, so the entries just shift
    * left by the pending count, `k - wr`. Only while no early-emitted hole
    * lies ahead, so that the write cursor is at or behind the read cursor.
    * Either way the next try is at the next block, or after a pop.
    */
  private def moveBlock(end: Int): Boolean = {
    val b = k >> PeelOrder.BlockBits
    val e = math.min((b + 1) << PeelOrder.BlockBits, end)
    nextCheck = e
    val move = holesAhead == 0 && blockStamp(b) != epoch && order.blockMaxAt(b) < heap.minKey
    if (move) {
      order.moveLeft(k, wr, e - k)
      blockMoved += e - k
      wr += e - k
      k = e
    }
    move
  }

  @inline private def isGray(v: Int): Boolean = grayEpoch(v) == epoch && grayCnt(v) > 0

  @inline private def headBefore(v: Int, kw: Double): Boolean = {
    val mk = heap.minKey
    mk < kw || (mk == kw && heap.minId < v)
  }

  private def popHead(): Unit = {
    val w = heap.minKey
    emitPopped(heap.popMin(), w)
    nextCheck = k // the min key rose: the rest of the block may move now
  }

  // A *white* vertex is by construction not adjacent to any heap member
  // (it would have been grayed when that member entered), so emitting it
  // needs no adjacency walk — this is what makes the affected area
  // O(|E_T|) instead of O(window × avg degree). Only heap pops walk their
  // adjacency to decrement remaining members (the paper's Case 1).
  //
  // Without a hole ahead the write cursor is at or behind the read cursor
  // (it trails it by the heap members whose slot the scan passed), so the
  // entry goes straight to its final index. Insertion never has a hole.
  // The cursors meet only for a white read at `k` with nothing pending
  // behind it (a deletion before its first pop): it is already in place.
  private def emit(v: Int, w: Double): Unit = {
    if (holesAhead == 0) { if (wr != k) order.put(wr, v, w) }
    else {
      if (bufLen == bufV.length) {
        bufV = java.util.Arrays.copyOf(bufV, bufLen * 2)
        bufW = java.util.Arrays.copyOf(bufW, bufLen * 2)
      }
      bufV(bufLen) = v; bufW(bufLen) = w; bufLen += 1
    }
    wr += 1
  }

  /** The last hole ahead was passed: the write cursor is back at or behind
    * the read cursor, so the buffered entries go to their final indices.
    */
  private def drain(): Unit = {
    order.putAll(bufStart, bufV, bufW, bufLen)
    bufLen = 0
  }

  private def emitPopped(v: Int, w: Double): Unit = {
    // Only a vertex that entered ahead of its slot can pop before it; the
    // counter spares insertion a position lookup per pop.
    val early = ahead > 0 && order.posOf(v) >= k
    if (early) {
      ahead -= 1
      if (holesAhead == 0) bufStart = wr
      holesAhead += 1
      order.vacate(v)
    }
    emit(v, w)
    graph.checkVertex(v)
    decrement(graph.outNbrs(v), graph.outWts(v), graph.outCount(v))
    decrement(graph.inNbrs(v), graph.inWts(v), graph.inCount(v))
    // The neighbours of an early-emitted `v` at or after the frontier still
    // count it in their stored Δ, so they enter the heap. They enter after
    // the decrements above: recovery already leaves `v` out, so a parallel
    // edge to `v` must not be subtracted twice.
    if (early) {
      enterOvertaken(graph.outNbrs(v), graph.outCount(v))
      enterOvertaken(graph.inNbrs(v), graph.inCount(v))
    }
  }

  /** A popped vertex's edges `(nbrs(i), ws(i))`, `i < cnt`, leave the
    * weights of the heap members and the gray counts of its neighbours.
    */
  private def decrement(nbrs: Array[Int], ws: Array[Double], cnt: Int): Unit = {
    var i = 0
    while (i < cnt) {
      val x = nbrs(i)
      if (heap.contains(x)) heap.addTo(x, -ws(i))
      if (grayEpoch(x) == epoch) grayCnt(x) -= 1
      i += 1
    }
    edgesTouched += cnt
  }

  private def enterOvertaken(nbrs: Array[Int], cnt: Int): Unit = {
    var i = 0
    while (i < cnt) {
      val x = nbrs(i)
      if (!heap.contains(x) && order.posOf(x) >= k) {
        blackMark(x) = epoch
        enterAhead(x)
      }
      i += 1
    }
    edgesTouched += cnt
  }

  /** `v` enters the heap before the scan reaches its slot, which becomes a
    * hole.
    */
  private def enterAhead(v: Int): Unit = {
    stamp(order.posOf(v))
    enterHeap(v)
    ahead += 1
  }

  /** Recover `v`'s peel weight against the active set and enqueue it. */
  private def enterHeap(v: Int): Unit = {
    var w = graph.vertexWeight(v)
    w = recover(graph.outNbrs(v), graph.outWts(v), graph.outCount(v), w)
    w = recover(graph.inNbrs(v), graph.inWts(v), graph.inCount(v), w)
    recovered += 1
    heap.insert(v, w)
  }

  /** Add to `w` the edges `(nbrs(i), ws(i))`, `i < cnt`, whose neighbour is
    * still active, and gray every neighbour (stamping the block of one
    * ahead of the frontier).
    *
    * A vertex is still *active* (unpeeled in the order being built) iff it
    * is pending in the heap, or it sits at/after the scan frontier. Emitted
    * and jump-skipped vertices have positions strictly before the frontier
    * (a heap member's may be stale and the frontier's entry may be
    * overwritten), and an early-emitted one has none, so one position test
    * covers them all.
    */
  private def recover(nbrs: Array[Int], ws: Array[Double], cnt: Int, w0: Double): Double = {
    var w = w0
    var i = 0
    while (i < cnt) {
      val x = nbrs(i)
      if (heap.contains(x)) w += ws(i)
      else {
        val p = order.posOf(x)
        if (p >= k) { w += ws(i); stamp(p) }
      }
      if (grayEpoch(x) != epoch) { grayEpoch(x) = epoch; grayCnt(x) = 0 }
      grayCnt(x) += 1
      i += 1
    }
    edgesTouched += cnt
    w
  }

  /** End the current window at `upTo`: every entry read is written, and
    * the next walk re-scans the window's blocks.
    */
  private def close(upTo: Int): Unit = {
    // `assert` would build its by-name message as a closure on every call.
    if (wr != upTo || bufLen != 0)
      throw new AssertionError(
        s"assertion failed: window accounting broken: wrote ${wr - windowStart} ($bufLen buffered) vs span ${upTo - windowStart}")
    order.markDirty(windowStart, upTo)
    emittedTotal += upTo - windowStart
  }
}
