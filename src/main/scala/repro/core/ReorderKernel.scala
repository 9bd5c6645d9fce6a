package repro.core

/** The merge kernel behind every update (§4.1, Algorithm 2, Appendix C.1).
  *
  * An update opens an epoch (`newEpoch`), marks its black vertices, and runs
  * one merge: `mergeBlacks` for insertion (every black vertex enters the heap
  * when the scan reaches its slot) or `mergeHoisted` for deletion (both
  * endpoints enter the heap at the cut).
  *
  * The scan reads the old blocks of the `PeelOrder` (see there) and writes
  * what it emits into fresh blocks linked in front of the block it reads,
  * so output never overlaps input. A block the scan reaches at its first
  * entry is *stepped over* in O(1), with no copy, no location write and no
  * re-scan, when it holds no black, gray or hoisted entry and its max `Δ`
  * is strictly below the heap's min key: every entry of it is then a white
  * that Case 1 cannot interrupt, so it keeps its entries and its place in
  * the list. Any other block the scan enters is rewritten once: the rest
  * go through the merge, and where a window ends the unread rest of the
  * block moves to its front. The kernel works on `(block, slot)` locations
  * and labels only: the order derives its dense indices and tidies its
  * small blocks itself, from the range of blocks the merge changed.
  *
  * Stamps are per slot. Invariant: every black, gray or hoisted vertex
  * ahead of the frontier has its slot stamped (`stamp`: a black's slot when
  * the merge starts, a neighbour ahead of the frontier when `enterHeap` grays
  * it, a hoisted vertex's old slot), and no unread slot moves without a
  * restamp (`close`'s compaction stamps every slot of a stamped block it
  * compacts). An unstamped slot therefore holds a white, which the scan
  * emits, or lets a pop go first, with no read of the per-vertex marks; a
  * stamped one takes the mark tests of Cases 1–2. A stamp is sticky (a gray
  * whose count falls back to 0 stays stamped), which only ever sends an
  * entry through the mark tests. A block with no stamped slot is a
  * candidate for the step-over above.
  *
  * An insertion window writes its first block in place (insertion never
  * emits ahead of the read cursor), and keeps filling it once the scan has
  * left it; a deletion window copies that block's entries before the window
  * out first.
  *
  * Insertion only raises weights, so a vertex never pops before the scan
  * reaches its slot. A hoisted vertex can: it is *emitted early*, and its
  * neighbours at or after the frontier still count it in their stored `Δ`,
  * so they are hoisted too. A hoisted vertex's old entry stays until the
  * scan reads it (and skips it) or the merge closes; a merge closes as soon
  * as its heap is empty, and the old entries still ahead then leave their
  * blocks. After the merge, `PeelOrder.tidy` merges small neighbouring
  * blocks of the region it changed.
  *
  * Every piece of the merge's state (cursors, window, counters) is a field,
  * and adjacency is walked with `while` loops over `DynGraph`'s raw arrays,
  * so a merge allocates nothing per vertex: no captured-variable boxes and
  * no closures. The scratch arrays only grow, and blocks come from the
  * order's free list.
  */
private[core] final class ReorderKernel(graph: DynGraph) {
  import PeelOrder.{BlockBits, BlockSize}

  private val heap = new IndexedMinHeap()
  // Gray is reference-counted per *current* heap member (the paper's Case 2
  // requires adjacency to a member of T, not to anything that ever passed
  // through it): entrants bump their neighbors, pops decrement them. A
  // sticky mark would cascade recoveries through the whole scan window.
  private var grayEpoch = new Array[Int](16)
  private var grayCnt   = new Array[Int](16)
  private var blackMark = new Array[Int](16)
  // aheadMark(v) == epoch: `v` was hoisted and the scan has not read its old
  // entry yet (so a pop of `v` is an early emission).
  private var aheadMark = new Array[Int](16)
  private var epoch = 0
  // This epoch's black vertices (`markBlack`); `mergeBlacks` turns them
  // into `(dense position << 32) | vertex`, sorted.
  private var blacks = new Array[Long](16)
  private var nBlacks = 0
  // blockStamp(b) == epoch: block b holds a black, gray or hoisted entry
  // ahead of the frontier, so it cannot be stepped over; then bit `l & 63`
  // of slotBits(l >>> 6) says whether slot `l` (packed location) is stamped.
  // The four words of a block are cleared by its first stamp of an epoch.
  private var blockStamp = new Array[Int](16)
  private var slotBits = new Array[Long](4 * 16)

  // ---- state of the running merge ----
  private var order: PeelOrder = _
  private var kb = -1           // frontier block: the next entry read is (kb, ks); -1 past the tail
  private var ks = 0
  private var entered = false   // kb is read entry by entry (not stepped over)
  private var ob = -1           // open output block, -1 when none
  private var os = 0            // entries in it
  private var obMax = 0.0
  private var inPlace = false   // insertion: a window's first block is its first output block
  private var span = 0          // entries of the order the windows cover
  private var recovered = 0
  private var edgesTouched = 0L
  private var ahead = 0         // hoisted vertices whose old entry the scan has not read
  private var stepped = 0
  private var written = 0L
  private var markReads = 0

  /** Entries the last merge stepped over (part of `emitted`). */
  private[core] def lastSteppedOver: Int = stepped

  /** Entries the last merge wrote into blocks. */
  private[core] def lastWritten: Long = written

  /** Slots the last merge stamped (a restamped block counts all 256). */
  private[core] def lastStamped: Int = {
    var n = 0
    var b = 0
    while (b < blockStamp.length) {
      if (blockStamp(b) == epoch) {
        var i = b << 2
        while (i < (b << 2) + 4) { n += java.lang.Long.bitCount(slotBits(i)); i += 1 }
      }
      b += 1
    }
    n
  }

  /** Entries the last merge read through the per-vertex mark tests. */
  private[core] def lastMarkReads: Int = markReads

  /** Size the per-vertex scratch and the heap for ids `0 until n`, and the
    * stamps for blocks `0 until blocks`.
    */
  def reserve(n: Int, blocks: Int): Unit = {
    if (n > grayEpoch.length) {
      val cap = Growth.capacity(grayEpoch.length, n)
      grayEpoch = java.util.Arrays.copyOf(grayEpoch, cap)
      grayCnt   = java.util.Arrays.copyOf(grayCnt, cap)
      blackMark = java.util.Arrays.copyOf(blackMark, cap)
      aheadMark = java.util.Arrays.copyOf(aheadMark, cap)
      heap.reserve(n) // its positions start at 16 too, so they grow in step
    }
    if (blocks > blockStamp.length) {
      val cap = Growth.capacity(blockStamp.length, blocks)
      blockStamp = java.util.Arrays.copyOf(blockStamp, cap)
      slotBits = java.util.Arrays.copyOf(slotBits, 4 * cap)
    }
  }

  /** Start an update over vertex ids `0 until n`: no vertex is black or gray. */
  def newEpoch(n: Int): Unit = {
    epoch += 1
    if (epoch == 0) {
      // The counter wrapped to the value of every untouched mark: clear the
      // marks once and restart at 1.
      java.util.Arrays.fill(grayEpoch, 0)
      java.util.Arrays.fill(blackMark, 0)
      java.util.Arrays.fill(aheadMark, 0)
      java.util.Arrays.fill(blockStamp, 0)
      epoch = 1
    }
    nBlacks = 0
    reserve(n, 0)
  }

  /** Set the epoch counter, so that a test can run updates across its wrap. */
  private[core] def setEpoch(e: Int): Unit = epoch = e

  /** Mark `v` black: it enters the heap when the scan reaches its slot. */
  def markBlack(v: Int): Unit =
    if (blackMark(v) != epoch) {
      blackMark(v) = epoch
      if (nBlacks == blacks.length) blacks = java.util.Arrays.copyOf(blacks, 2 * nBlacks)
      blacks(nBlacks) = v
      nBlacks += 1
    }

  @inline private def blackAt(i: Int): Int = blacks(i).toInt

  /** Insertion merge: the scan starts at the first black vertex's slot and
    * recovers every black vertex at its own slot. At least one vertex must
    * be marked black.
    */
  def mergeBlacks(o: PeelOrder): ReorderStats = {
    begin(o)
    inPlace = true
    var i = 0
    while (i < nBlacks) {
      val v = blackAt(i)
      blacks(i) = (o.posOf(v).toLong << 32) | v
      stamp(o.locOf(v))
      i += 1
    }
    java.util.Arrays.sort(blacks, 0, nBlacks)
    openWindow(o.locOf(blackAt(0)))
    run((blacks(0) >>> 32).toInt)
  }

  /** Deletion merge: `src` and `dst` enter the heap at location `cut`,
    * ahead of their slots.
    */
  def mergeHoisted(o: PeelOrder, cut: Int, src: Int, dst: Int): ReorderStats = {
    begin(o)
    inPlace = false
    val scanFrom = o.posOf(o.vAt(cut))
    openWindow(cut)
    enterAhead(src)
    enterAhead(dst)
    run(scanFrom)
  }

  private def begin(o: PeelOrder): Unit = {
    heap.clear()
    order = o
    reserve(0, o.blockCapacity)
    ob = -1
    span = 0
    recovered = 0
    edgesTouched = 0L
    ahead = 0
    stepped = 0
    written = o.writes
    markReads = 0
  }

  /** Stamp the slot at location `l`: its entry takes the mark tests, and
    * its block cannot be stepped over in this merge.
    */
  @inline private def stamp(l: Int): Unit = {
    val b = l >>> BlockBits
    if (blockStamp(b) != epoch) {
      blockStamp(b) = epoch
      val w = b << 2
      slotBits(w) = 0L; slotBits(w + 1) = 0L; slotBits(w + 2) = 0L; slotBits(w + 3) = 0L
    }
    slotBits(l >>> 6) |= 1L << l // the shift reads the low 6 bits: the slot within its word
  }

  @inline private def stamped(l: Int): Boolean =
    blockStamp(l >>> BlockBits) == epoch && (slotBits(l >>> 6) & (1L << l)) != 0

  /** Stamp every slot of block `b`, whose unread entries `close` moved. */
  private def restamp(b: Int): Unit = java.util.Arrays.fill(slotBits, b << 2, (b << 2) + 4, -1L)

  /** Open a window at location `l`; the scan starts there. The entries of
    * its block before `l` stay in place (insertion: the block is the first
    * output block) or are copied out.
    */
  private def openWindow(l: Int): Unit = {
    kb = l >>> BlockBits
    ks = l & PeelOrder.BlockMask
    if (inPlace) {
      ob = kb
      os = ks
      obMax = order.maxOfRange(kb, 0, ks)
      entered = true
    } else {
      entered = ks > 0
      copyOut(0, ks)
    }
  }

  /** Copy slots `[from, until)` of the frontier block to the output. */
  private def copyOut(from: Int, until: Int): Unit = {
    var s = from
    while (s < until) {
      if (ob < 0 || os == BlockSize) openOutput()
      val n = math.min(until - s, BlockSize - os)
      val m = order.copyRun((kb << BlockBits) | s, (ob << BlockBits) | os, n)
      if (m > obMax) obMax = m
      os += n; s += n
    }
  }

  /** Run the merge from the open window; `scanFrom`, the dense index where
    * it starts, was read before anything moved.
    */
  private def run(scanFrom: Int): ReorderStats = {
    var bp = 0 // next entry of `blacks(0 until nBlacks)`, sorted by position
    var done = false
    while (!done) {
      if (heap.isEmpty) {
        // The window ends here unless the next black is the frontier entry.
        val fk = order.keyAt(kb, ks)
        while (bp < nBlacks && order.keyOf(blackAt(bp)) < fk) bp += 1
        if (bp >= nBlacks) {
          close()
          done = true // the rest of the order is untouched — Lemma 4.1 in reverse
        } else {
          val v = blackAt(bp)
          bp += 1
          if (order.locOf(v) != ((kb << BlockBits) | ks)) {
            close()
            openWindow(order.locOf(v))
          }
          enterHeap(v)
          advance()
        }
      } else if (kb < 0) {
        popHead()
      } else if (entered || !stepOver()) {
        val l = (kb << BlockBits) | ks
        val v = order.vAt(l)
        val kw = order.wAt(l)
        // An unstamped slot holds a white: none of the mark tests can hold.
        val marked = stamped(l)
        if (marked && aheadMark(v) == epoch) {
          // The old entry of a hoisted vertex (in the heap, or emitted
          // early): its stored Δ is stale and must not decide a pop.
          aheadMark(v) = 0
          ahead -= 1
          markReads += 1
          advance()
        } else if (headBefore(v, kw)) {
          // Case 1: the pending head is the global minimum (Lemma 4.2)
          popHead()
        } else if (!marked) {
          // Case 2(b)/3 for the white here and the whites after it
          emitRun()
        } else {
          markReads += 1
          if (blackMark(v) == epoch || isGray(v)) {
            // Case 2(a): stored Δ_k may be stale — recover and enqueue
            enterHeap(v)
          } else {
            // Case 2(b)/3: white vertex, stored Δ_k is exact and minimal
            emit(v, kw)
          }
          advance()
        }
      }
    }
    order.tidy()
    written = order.writes - written
    order = null // `Spade.loadGraph` may replace the order between merges
    ReorderStats(scanFrom, span, recovered, edgesTouched)
  }

  /** Emit the white at the frontier, which Case 1 does not interrupt,
    * together with the unstamped entries after it in its block whose Δ is
    * strictly below the heap's min key: they are whites, and no pop can
    * come between them, so they go out in one copy (a lone white skips the
    * copy's set-up).
    */
  private def emitRun(): Unit = {
    val mk = heap.minKey
    val base = kb << BlockBits
    val size = order.sizeOf(kb)
    var e = ks + 1
    while (e < size && !stamped(base | e) && order.wAt(base | e) < mk) e += 1
    if (e == ks + 1) emit(order.vAt(base | ks), order.wAt(base | ks))
    else {
      copyOut(ks, e)
      span += e - ks - 1
      ks = e - 1
    }
    advance()
  }

  /** The frontier entry was read: move past it, releasing its block once
    * every entry of it is read (unless it is the output block).
    */
  private def advance(): Unit = {
    ks += 1
    span += 1
    entered = true
    if (ks == order.sizeOf(kb)) {
      val n = order.nextBlock(kb)
      if (kb != ob) order.release(kb)
      kb = n
      ks = 0
      entered = false
    }
  }

  /** Step over the frontier block, which the scan reaches at its first
    * entry, if every entry of it is a white that Case 1 cannot interrupt: no
    * black, gray or hoisted entry (no stamp), and a block max strictly below
    * the heap's min key (ties fall back, since the id tie-break may pop
    * first). No heap entry and no pop can then happen inside it, so it keeps
    * its entries and its place; the emitted entries before it end there.
    */
  private def stepOver(): Boolean = {
    entered = true
    val move = blockStamp(kb) != epoch && order.maxOf(kb) < heap.minKey
    if (move) {
      closeOutput()
      val n = order.sizeOf(kb)
      span += n
      stepped += n
      kb = order.nextBlock(kb)
      entered = false
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
  }

  // A *white* vertex is by construction not adjacent to any heap member
  // (it would have been grayed when that member entered), so emitting it
  // needs no adjacency walk — this is what makes the affected area
  // O(|E_T|) instead of O(window × avg degree). Only heap pops walk their
  // adjacency to decrement remaining members (the paper's Case 1).
  private def emit(v: Int, w: Double): Unit = {
    if (ob < 0 || os == BlockSize) openOutput()
    order.put((ob << BlockBits) | os, v, w)
    if (w > obMax) obMax = w
    os += 1
  }

  /** A fresh output block, in front of the frontier block. */
  private def openOutput(): Unit = {
    closeOutput()
    ob = order.open(kb)
    os = 0
    obMax = Double.NegativeInfinity
  }

  private def closeOutput(): Unit =
    if (ob >= 0) {
      order.seal(ob, os, obMax)
      ob = -1
    }

  private def emitPopped(v: Int, w: Double): Unit = {
    val early = aheadMark(v) == epoch
    emit(v, w)
    graph.checkVertex(v)
    decrement(v)
    // The neighbours of an early-emitted `v` at or after the frontier still
    // count it in their stored Δ, so they are hoisted. They enter after the
    // decrements above: recovery already leaves `v` out (it is written
    // behind the frontier), so a parallel edge to `v` must not be
    // subtracted twice.
    if (early) enterOvertaken(v)
  }

  /** A popped vertex's edges leave the weights of the heap members and the
    * gray counts of its neighbours.
    */
  private def decrement(v: Int): Unit = {
    val nbrs = graph.nbrs(v); val ws = graph.wts(v); val cnt = graph.count(v)
    var i = 0
    while (i < cnt) {
      val x = nbrs(i)
      if (heap.contains(x)) heap.addTo(x, -ws(i))
      if (grayEpoch(x) == epoch) grayCnt(x) -= 1
      i += 1
    }
    edgesTouched += cnt
  }

  private def enterOvertaken(v: Int): Unit = {
    val nbrs = graph.nbrs(v); val cnt = graph.count(v)
    val fk = order.keyAt(kb, ks)
    var i = 0
    while (i < cnt) {
      val x = nbrs(i)
      if (!heap.contains(x) && order.keyOf(x) >= fk) enterAhead(x)
      i += 1
    }
    edgesTouched += cnt
  }

  /** `v` enters the heap before the scan reaches its slot. */
  private def enterAhead(v: Int): Unit = {
    stamp(order.locOf(v))
    aheadMark(v) = epoch
    ahead += 1
    enterHeap(v)
  }

  /** Recover `v`'s peel weight against the active set, its prior plus the
    * edges whose neighbour is still active, and enqueue it. Grays every
    * neighbour, and stamps the slot of one ahead of the frontier.
    *
    * A vertex is still *active* (unpeeled in the order being built) iff it
    * is pending in the heap, or it sits at/after the scan frontier. Emitted
    * vertices sit in blocks in front of the frontier block and stepped-over
    * ones in blocks the frontier passed, so one key test covers them all (a
    * heap member's location may be stale).
    */
  private def enterHeap(v: Int): Unit = {
    var w = graph.vertexWeight(v)
    val nbrs = graph.nbrs(v); val ws = graph.wts(v); val cnt = graph.count(v)
    val fk = order.keyAt(kb, ks)
    var i = 0
    while (i < cnt) {
      val x = nbrs(i)
      if (heap.contains(x)) w += ws(i)
      else {
        val l = order.locOf(x)
        if (order.keyOfLoc(l) >= fk) { w += ws(i); stamp(l) }
      }
      if (grayEpoch(x) != epoch) { grayEpoch(x) = epoch; grayCnt(x) = 0 }
      grayCnt(x) += 1
      i += 1
    }
    edgesTouched += cnt
    recovered += 1
    heap.insert(v, w)
  }

  /** End the current window at the frontier, with the heap empty. The
    * frontier block keeps only its unread entries; the old entries of
    * early-emitted vertices still ahead leave their blocks, and the window
    * extends over them (their positions changed).
    */
  private def close(): Unit = {
    var extra = 0
    if (kb >= 0 && kb == ob) {
      // An insertion window that ends in its first block: everything read
      // was written back in place (the cursors meet), the rest is unread.
      order.seal(kb, order.sizeOf(kb), math.max(obMax, order.maxOfRange(kb, ks, order.sizeOf(kb))))
      ob = -1
    } else if (kb >= 0 && (ks > 0 || ahead > 0)) {
      closeOutput()
      var b = kb
      var from = ks
      var passed = 0
      var go = true
      while (go) {
        val examined = order.sizeOf(b) - from
        val dropped =
          if (from > 0 || blockStamp(b) == epoch) {
            val d = order.compact(b, from)
            // Compaction moved unread entries away from their stamps, and a
            // later window of this insertion may read them.
            if (blockStamp(b) == epoch) restamp(b)
            d
          } else 0
        if (dropped > 0) {
          extra = passed + order.lastDropEnd
          ahead -= dropped
        }
        passed += examined
        val n = order.nextBlock(b)
        if (order.sizeOf(b) == 0) order.release(b)
        b = n
        from = 0
        go = ahead > 0 && b >= 0
      }
    }
    closeOutput()
    span += extra
  }
}
