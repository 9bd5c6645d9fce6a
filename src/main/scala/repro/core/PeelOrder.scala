package repro.core

/** The fraudulent community returned by `Detect`: the densest prefix-set of
  * the peeling sequence.
  *
  * @param density  `g(S) = f(S)/|S|` of the community
  * @param members  the community's vertices (suffix of the peeling order)
  */
final case class Community(density: Double, members: Array[Int]) {
  lazy val memberSet: Set[Int] = members.toSet
  def size: Int = members.length
  override def toString = f"Community(g=$density%.4f, |S|=${members.length})"
}

/** The peeling sequence `O` plus per-step peel weights `Δ` (the `_seq` /
  * `_weight` vectors of Listing 1), kept as an unrolled list of blocks of at
  * most 256 entries (`BlockBits`), so that a merge edits the blocks it must
  * and steps over the rest (an order-maintenance list: Bender et al.,
  * "Two simplified algorithms for maintaining order in a list", ESA 2002).
  *
  *  - Block `b`'s entries live in one pooled slab at `(b << BlockBits) + slot`;
  *    a vertex's location is that packed `(block, slot)` `Int`. Freed blocks
  *    go to a free list and are reused.
  *  - The blocks are linked in order and carry strictly increasing `Long`
  *    labels, so "is `x` at or after the frontier" compares `(label, slot)`
  *    in O(1) (`keyOf`) while the merge moves blocks around.
  *  - Every change of a block's size, max or place marks it dirty: the
  *    dirty range runs from the first such block through the last one.
  *  - Every block keeps its exact max `Δ`, a running max over blocks (for
  *    `Detect`'s stop test and the deletion cut), and the dense index of
  *    its first entry (so `start`, `end`, `posOf`, `vertexAt`, ... keep
  *    their flat meaning). `refresh` redoes both over the dirty range and
  *    on until they come out unchanged; every read of them refreshes
  *    first. Nothing reads a dense index while a merge runs, so the merge
  *    kernel works on locations and labels only. `vertexAt` finds its
  *    block from the block it found last, or by a walk from the head.
  *  - Every pair of adjacent blocks holds more than 256 entries: `tidy`
  *    merges small neighbours in and around the dirty range after each
  *    merge, so there are at most `2·⌈|V|/256⌉ + 1` blocks.
  */
final class PeelOrder private (capacityBlocks: Int, maxVertexId: Int) {
  import PeelOrder._

  // ---- the block pool; ids index these arrays ----
  private var seqArr = new Array[Int](capacityBlocks << BlockBits)
  private var wtArr  = new Array[Double](capacityBlocks << BlockBits)
  private var bSize  = new Array[Int](capacityBlocks)
  private var bNext  = new Array[Int](capacityBlocks)
  private var bPrev  = new Array[Int](capacityBlocks)
  private var bLabel = new Array[Long](capacityBlocks)
  private var bBase  = new Array[Int](capacityBlocks)   // dense index of slot 0
  private var bMax   = new Array[Double](capacityBlocks) // exact max Δ of the block
  private var bRun   = new Array[Double](capacityBlocks) // max Δ from the head through the block
  private var freeIds = new Array[Int](capacityBlocks)
  private var nFree = 0
  private var nAlloc = 0 // ids below this have been handed out (linked or free)

  private var headB = -1
  private var tailB = -1
  private var nBlocks = 0
  private var startIdx = 0
  private var endIdx = 0

  private var loc: Array[Int] = Array.fill(Growth.capacity(0, math.max(1, maxVertexId + 1)))(-1)

  // bRun and bBase are exact for every block before `runFrom` (all of them
  // when -1). Blocks with labels in [label(runFrom), runTo] changed since;
  // past them bRun and bBase change only where a predecessor's did.
  private var runFrom = -1
  private var runTo = Long.MinValue
  private var cursor = -1 // the block `locAt` found last, -1 after a block is linked or unlinked

  private var walked = 0
  private var walkBest = 0.0
  private var walkBestLen = 0
  private var walkCutLen = 0
  private var dropEnd = 0

  /** Entries written into blocks so far (for tests of the merge's cost). */
  private[core] var writes = 0L

  /** First (inclusive) dense index of the sequence. */
  def start: Int = startIdx

  /** One past the last dense index of the sequence. */
  def end: Int = endIdx

  /** Number of vertices in the order. */
  def length: Int = endIdx - startIdx

  /** Vertex peeled at dense index `p`. */
  def vertexAt(p: Int): Int = seqArr(locAt(p))

  /** Peel-time weight `Δ` of the vertex at dense index `p`. */
  def weightAt(p: Int): Double = wtArr(locAt(p))

  /** Dense index of vertex `v` in the order, -1 if it is not in it. */
  def posOf(v: Int): Int = {
    refresh()
    val l = loc(v)
    if (l < 0) -1 else bBase(l >>> BlockBits) + (l & BlockMask)
  }

  /** True iff vertex `v` is part of the order. */
  def containsVertex(v: Int): Boolean = v >= 0 && v < loc.length && loc(v) >= 0

  /** Entries the last `detect` / `detectThreshold` / `density` walk visited, tail first. */
  def lastWalkLength: Int = walked

  /** Overwrite the entry at dense index `p`. */
  def set(p: Int, v: Int, w: Double): Unit = {
    val l = locAt(p)
    val b = l >>> BlockBits
    val old = wtArr(l)
    seqArr(l) = v
    wtArr(l) = w
    loc(v) = l
    if (w > bMax(b)) bMax(b) = w
    else if (old == bMax(b) && w < old) bMax(b) = maxOfRange(b, 0, bSize(b))
    touch(b)
  }

  /** Grow the vertex-id space of `posOf` (new ids map to -1; `Growth`'s rule). */
  def ensureVertex(id: Int): Unit =
    if (id >= loc.length) {
      val np = new Array[Int](Growth.capacity(loc.length, id + 1))
      java.util.Arrays.fill(np, -1)
      System.arraycopy(loc, 0, np, 0, loc.length)
      loc = np
    }

  /** Prepend a brand-new vertex at the head of the order with weight `w`
    * (its `vsusp`). It goes into the head block (shifting at most 255
    * entries) or, when that is full, into a new head block.
    */
  def prepend(v: Int, w: Double): Unit = {
    ensureVertex(v)
    require(loc(v) < 0, s"vertex $v already in the order")
    val b =
      if (headB >= 0 && bSize(headB) < BlockSize) {
        val h = headB
        val off = h << BlockBits
        val n = bSize(h)
        System.arraycopy(seqArr, off, seqArr, off + 1, n)
        System.arraycopy(wtArr, off, wtArr, off + 1, n)
        var s = 1
        while (s <= n) { loc(seqArr(off + s)) = off + s; s += 1 }
        writes += n
        bSize(h) = n + 1
        h
      } else {
        val h = open(headB)
        bSize(h) = 1
        h
      }
    startIdx -= 1
    put(b << BlockBits, v, w)
    if (w > bMax(b)) bMax(b) = w
    touch(b)
  }

  /** The peeling order as vertices, head first. */
  def toVertexSeq: IndexedSeq[Int] = {
    val out = Vector.newBuilder[Int]
    var b = headB
    while (b >= 0) { var s = 0; while (s < bSize(b)) { out += seqArr((b << BlockBits) + s); s += 1 }; b = bNext(b) }
    out.result()
  }

  /** The peel weights, aligned with `toVertexSeq`. */
  def toWeightSeq: IndexedSeq[Double] = {
    val out = Vector.newBuilder[Double]
    var b = headB
    while (b >= 0) { var s = 0; while (s < bSize(b)) { out += wtArr((b << BlockBits) + s); s += 1 }; b = bNext(b) }
    out.result()
  }

  // ------------------------------------------------------------------
  // Detect
  // ------------------------------------------------------------------

  /** `Detect()` of Listing 1: the argmax-density prefix-set.
    *
    * `f(S_i) = Σ_{j>i} Δ_j` (the peel weights telescope the metric), so a
    * backward walk over the weight vector finds
    * `arg max_i g(S_i) = f(S_i)/|S_i|`. Ties prefer the *larger* set, so a
    * union of equally dense fraud blocks is returned whole (Appendix B,
    * Fig. 14). The walk stops at the community (see `walk`).
    */
  def detect(): Community = {
    walk(1.0)
    community(walkBestLen)
  }

  /** The density of `detect`'s community, from the same walk, without
    * copying its members.
    */
  def density(): Double = {
    walk(1.0)
    if (walkBestLen == 0) 0.0 else walkBest
  }

  /** Fig.-14 semantics for *spotting*: the largest suffix-set whose density
    * is still within `beta` of the best — equally dense fraud instances
    * "commonly form a dense subgraph" and are all returned, without paying
    * for a full enumeration per update. A suffix qualifies when its density
    * reaches `beta · best · (1 - CutTolerance)`. One pruned walk.
    */
  def detectThreshold(beta: Double): Community = {
    require(beta > 0 && beta <= 1, s"beta must be in (0, 1], got $beta")
    walk(beta)
    community(walkCutLen)
  }

  private def community(len: Int): Community = {
    val members = new Array[Int](len)
    var i = len
    var b = tailB
    while (i > 0) {
      val take = math.min(bSize(b), i)
      System.arraycopy(seqArr, (b << BlockBits) + bSize(b) - take, members, i - take, take)
      i -= take
      b = bPrev(b)
    }
    Community(if (len == 0) 0.0 else walkBest, members)
  }

  /** The one backward walk behind the detectors. It tracks the argmax
    * suffix (ties to the larger set) and the longest suffix reaching
    * `cut = beta · best · (1 - CutTolerance)`. `best` only grows, so every
    * suffix longer than the final argmax is tested against the final `cut`;
    * shorter ones cannot be the answer, since the argmax itself qualifies.
    *
    * Stop rule, exact by the mediant inequality
    * `(a+b)/(m+k) ≤ max(a/m, b/k)`: at the start of a block, if the current
    * suffix density is below `cut` and every `Δ` before the block is below
    * `cut` too (the running max of the previous block), every longer suffix
    * is below `cut ≤ best`, so neither answer can change. The `Slack`
    * margin keeps that true for the float-rounded densities of the suffixes
    * the walk skips (it covers summation rounding up to ~10^6 entries).
    * Cost: O(|answer| + 256) once the community stands out, O(length) when
    * it does not.
    */
  private def walk(beta: Double): Unit = {
    refresh()
    var suffix = 0.0
    var best = Double.NegativeInfinity
    var cut = Double.NegativeInfinity
    var bestLen = 0
    var cutLen = 0
    var len = 0
    var stop = false
    var b = tailB
    while (b >= 0 && !stop) {
      val off = b << BlockBits
      var s = bSize(b) - 1
      var dens = 0.0
      while (s >= 0) {
        suffix += wtArr(off + s)
        len += 1
        dens = suffix / len
        if (dens >= best) {
          best = dens; bestLen = len; cutLen = len
          cut = beta * best * (1 - CutTolerance)
        } else if (dens >= cut) cutLen = len
        s -= 1
      }
      val p = bPrev(b)
      if (p >= 0) stop = dens < cut && bRun(p) < cut * (1 - Slack)
      b = p
    }
    walked = len
    walkBest = best
    walkBestLen = bestLen
    walkCutLen = cutLen
  }

  /** Location of the first entry up to location `upTo` whose `Δ` is at
    * least `b`, or `upTo` when there is none before it: a walk over the
    * running max of the blocks from the head, then one block.
    */
  private[core] def firstAtLeast(b: Double, upTo: Int): Int = {
    refresh()
    val last = upTo >>> BlockBits
    var blk = headB
    while (blk != last && bRun(blk) < b) blk = bNext(blk)
    // Before `last`, bRun rises to >= b at `blk`, so its own max is >= b.
    val off = blk << BlockBits
    val until = if (blk == last) upTo & BlockMask else bSize(blk)
    var s = 0
    while (s < until && wtArr(off + s) < b) s += 1
    off + s
  }

  /** Redo the running max and the dense bases from `runFrom` through the
    * changed blocks, and on until both come out as they were: every later
    * block then keeps its.
    */
  private def refresh(): Unit =
    if (runFrom >= 0) {
      var b = runFrom
      val p = bPrev(b)
      var run = if (p < 0) Double.NegativeInfinity else bRun(p)
      var base = if (p < 0) startIdx else bBase(p) + bSize(p)
      while (b >= 0) {
        if (bMax(b) > run) run = bMax(b)
        if (bLabel(b) > runTo && bRun(b) == run && bBase(b) == base) b = -1
        else {
          bRun(b) = run
          bBase(b) = base
          base += bSize(b)
          b = bNext(b)
        }
      }
      runFrom = -1
      runTo = Long.MinValue
    }

  /** Block `b`'s size, max or place in the list changed: the running max
    * and the dense bases are stale from `b` on, through `b` at least.
    */
  private def touch(b: Int): Unit = {
    if (runFrom < 0 || bLabel(b) < bLabel(runFrom)) runFrom = b
    if (bLabel(b) > runTo) runTo = bLabel(b)
  }

  // ------------------------------------------------------------------
  // Dense index
  // ------------------------------------------------------------------

  /** The packed `(block, slot)` location of dense index `p`. */
  private def locAt(p: Int): Int = {
    refresh()
    // `require` without its per-call message closure: see `IndexedMinHeap.requirePresent`.
    if (p < startIdx || p >= endIdx)
      throw new IllegalArgumentException(s"requirement failed: index $p outside [$startIdx, $endIdx)")
    var b = cursor
    if (b < 0 || p < bBase(b) || p - bBase(b) >= bSize(b)) {
      b = if (b >= 0) bNext(b) else -1
      if (b < 0 || p < bBase(b) || p - bBase(b) >= bSize(b)) {
        b = headB
        while (p - bBase(b) >= bSize(b)) b = bNext(b)
      }
      cursor = b
    }
    (b << BlockBits) | (p - bBase(b))
  }

  // ------------------------------------------------------------------
  // Block access for the merge kernel (no range checks)
  // ------------------------------------------------------------------

  private[core] def headBlock: Int = headB
  private[core] def nextBlock(b: Int): Int = bNext(b)
  private[core] def sizeOf(b: Int): Int = bSize(b)
  private[core] def maxOf(b: Int): Double = bMax(b)

  /** Max `Δ` of slots `[from, until)` of block `b`. */
  private[core] def maxOfRange(b: Int, from: Int, until: Int): Double = {
    val off = b << BlockBits
    var m = Double.NegativeInfinity
    var s = from
    while (s < until) { if (wtArr(off + s) > m) m = wtArr(off + s); s += 1 }
    m
  }

  /** Block ids are below this. */
  private[core] def blockCapacity: Int = bSize.length

  /** Packed `(block, slot)` location of vertex `v`, -1 if it has none. */
  @inline private[core] def locOf(v: Int): Int = loc(v)
  @inline private[core] def vAt(l: Int): Int = seqArr(l)
  @inline private[core] def wAt(l: Int): Double = wtArr(l)

  /** Order key of location `l`: `(label, slot)` packed in a `Long`. */
  @inline private[core] def keyOfLoc(l: Int): Long = (bLabel(l >>> BlockBits) << BlockBits) | (l & BlockMask)

  /** Order key of vertex `v`'s location. */
  @inline private[core] def keyOf(v: Int): Long = keyOfLoc(loc(v))

  /** Order key of slot `s` of block `b`; past the tail when `b < 0`. */
  @inline private[core] def keyAt(b: Int, s: Int): Long =
    if (b < 0) Long.MaxValue else (bLabel(b) << BlockBits) | s

  /** Write `v` with weight `w` at location `l`. */
  @inline private[core] def put(l: Int, v: Int, w: Double): Unit = {
    seqArr(l) = v
    wtArr(l) = w
    loc(v) = l
    writes += 1
  }

  /** Copy the `len` entries at location `from` to location `to` (another
    * block), updating their locations; returns their max `Δ`.
    */
  private[core] def copyRun(from: Int, to: Int, len: Int): Double = {
    System.arraycopy(seqArr, from, seqArr, to, len)
    System.arraycopy(wtArr, from, wtArr, to, len)
    var m = Double.NegativeInfinity
    var i = 0
    while (i < len) {
      loc(seqArr(to + i)) = to + i
      if (wtArr(to + i) > m) m = wtArr(to + i)
      i += 1
    }
    writes += len
    m
  }

  /** A new empty block, linked before block `before` (at the tail when
    * `before < 0`).
    */
  private[core] def open(before: Int): Int = {
    val b = alloc()
    val p = if (before < 0) tailB else bPrev(before)
    bLabel(b) =
      if (p < 0 && before < 0) FirstLabel
      else if (before < 0) bLabel(p) + Gap
      else if (p < 0) bLabel(before) - Gap
      else (bLabel(p) + bLabel(before)) >>> 1
    bPrev(b) = p
    bNext(b) = before
    if (p < 0) headB = b else bNext(p) = b
    if (before < 0) tailB = b else bPrev(before) = b
    nBlocks += 1
    cursor = -1
    val l = bLabel(b)
    if (l <= (if (p < 0) 0L else bLabel(p)) || (before >= 0 && l >= bLabel(before)) || l > MaxLabel) relabel()
    bSize(b) = 0
    bMax(b) = Double.NegativeInfinity
    touch(b)
    b
  }

  /** Close block `b` with `size` entries whose max is `max`. */
  private[core] def seal(b: Int, size: Int, max: Double): Unit = {
    bSize(b) = size
    bMax(b) = max
    touch(b)
  }

  /** Unlink block `b` and return it to the pool. */
  private[core] def release(b: Int): Unit = {
    val p = bPrev(b)
    val n = bNext(b)
    if (p < 0) headB = n else bNext(p) = n
    if (n < 0) tailB = p else bPrev(n) = p
    nBlocks -= 1
    cursor = -1
    freeIds(nFree) = b
    nFree += 1
    if (runFrom == b) runFrom = -1
    if (n >= 0) touch(n)
  }

  /** Keep, of block `b`'s entries `[from, size)`, those whose vertex is
    * still located there, moved to the front of the block. Returns how many
    * were dropped; `dropEnd` is one past the last dropped one, counted from
    * `from`.
    */
  private[core] def compact(b: Int, from: Int): Int = {
    val off = b << BlockBits
    val n = bSize(b)
    var w = 0
    var m = Double.NegativeInfinity
    var dropped = 0
    dropEnd = 0
    var s = from
    while (s < n) {
      val v = seqArr(off + s)
      if (loc(v) == off + s) {
        if (w != s) put(off + w, v, wtArr(off + s))
        if (wtArr(off + w) > m) m = wtArr(off + w)
        w += 1
      } else {
        dropped += 1
        dropEnd = s - from + 1
      }
      s += 1
    }
    bSize(b) = w
    bMax(b) = m
    touch(b)
    dropped
  }

  /** See `compact`. */
  private[core] def lastDropEnd: Int = dropEnd

  /** Merge every adjacent pair of blocks holding at most 256 entries
    * together, from the block before the dirty range through the pair after
    * its last block: the right block's entries move to the end of the left
    * one. Only a block whose size or place changed can be in such a pair,
    * and every such block is in the dirty range.
    */
  private[core] def tidy(): Unit =
    if (runFrom >= 0) {
      val p = bPrev(runFrom)
      var a = if (p >= 0) p else runFrom
      var last = runTo
      while (a >= 0) {
        val nx = bNext(a)
        if (nx < 0) a = -1
        else if (bSize(a) + bSize(nx) <= BlockSize) {
          val m = copyRun(nx << BlockBits, (a << BlockBits) + bSize(a), bSize(nx))
          bSize(a) += bSize(nx)
          if (m > bMax(a)) bMax(a) = m
          if (bLabel(nx) >= last) last = bLabel(a)
          release(nx)
          touch(a)
        } else if (bLabel(a) >= last) a = -1
        else a = nx
      }
    }

  private def alloc(): Int =
    if (nFree > 0) { nFree -= 1; freeIds(nFree) }
    else {
      if (nAlloc == bSize.length) grow()
      nAlloc += 1
      nAlloc - 1
    }

  private def grow(): Unit = {
    val cap = bSize.length + (bSize.length >> 1) + 4
    seqArr = java.util.Arrays.copyOf(seqArr, cap << BlockBits)
    wtArr = java.util.Arrays.copyOf(wtArr, cap << BlockBits)
    bSize = java.util.Arrays.copyOf(bSize, cap)
    bNext = java.util.Arrays.copyOf(bNext, cap)
    bPrev = java.util.Arrays.copyOf(bPrev, cap)
    bLabel = java.util.Arrays.copyOf(bLabel, cap)
    bBase = java.util.Arrays.copyOf(bBase, cap)
    bMax = java.util.Arrays.copyOf(bMax, cap)
    bRun = java.util.Arrays.copyOf(bRun, cap)
    freeIds = java.util.Arrays.copyOf(freeIds, cap)
  }

  /** Spread the labels evenly again (order unchanged). */
  private def relabel(): Unit = {
    var l = FirstLabel
    var b = headB
    while (b >= 0) { bLabel(b) = l; l += Gap; b = bNext(b) }
    if (runFrom >= 0) runTo = Long.MaxValue
  }


  /** Check the order's own invariants, throwing `IllegalStateException` at
    * the first one broken:
    *  - the blocks form one doubly linked list, their labels strictly
    *    increase along it, and every block holds 1–256 entries;
    *  - every pair of adjacent blocks holds more than 256 entries, so there
    *    are at most `2·⌈|V|/256⌉ + 2` blocks;
    *  - the bases are the dense indices: the head's is `start`, each next
    *    one adds the previous block's size, and the last block ends at `end`;
    *  - every `(block, slot)` location round-trips: the entry there holds
    *    the vertex, and every id outside the order has location -1;
    *  - every block max is exact, and so is every running max once
    *    refreshed (as `Detect` refreshes it);
    *  - linked and free blocks together are the blocks handed out.
    * O(capacity); for tests.
    */
  private[core] def checkInvariants(): Unit = {
    def fail(msg: String): Nothing = throw new IllegalStateException(msg)
    refresh()
    var count = 0
    var linked = 0
    var pos = startIdx
    var run = Double.NegativeInfinity
    var prevB = -1
    var b = headB
    while (b >= 0) {
      if (linked > nAlloc) fail("the block list has a cycle")
      if (bPrev(b) != prevB) fail(s"block $b: prev ${bPrev(b)}, expected $prevB")
      if (prevB >= 0 && bLabel(prevB) >= bLabel(b)) fail(s"labels ${bLabel(prevB)} then ${bLabel(b)}")
      val n = bSize(b)
      if (n < 1 || n > BlockSize) fail(s"block $b holds $n entries")
      if (prevB >= 0 && bSize(prevB) + n <= BlockSize) fail(s"blocks $prevB and $b hold ${bSize(prevB) + n} entries")
      if (bBase(b) != pos) fail(s"block $b: base ${bBase(b)}, expected $pos")
      val off = b << BlockBits
      var m = Double.NegativeInfinity
      var s = 0
      while (s < n) {
        val v = seqArr(off + s)
        if (v < 0 || v >= loc.length || loc(v) != off + s)
          fail(s"block $b slot $s holds $v, located at ${if (v >= 0 && v < loc.length) loc(v) else "n/a"}")
        if (wtArr(off + s) > m) m = wtArr(off + s)
        s += 1
      }
      if (bMax(b) != m) fail(s"block $b: max ${bMax(b)}, recomputed $m")
      if (m > run) run = m
      if (bRun(b) != run) fail(s"block $b: running max ${bRun(b)}, recomputed $run")
      count += n
      pos += n
      linked += 1
      prevB = b
      b = bNext(b)
    }
    if (prevB != tailB) fail(s"tail is $tailB, the list ends at $prevB")
    if (pos != endIdx) fail(s"the blocks end at $pos, the order at $endIdx")
    if (linked != nBlocks) fail(s"$linked blocks linked, $nBlocks counted")
    if (linked + nFree != nAlloc) fail(s"$linked linked + $nFree free != $nAlloc handed out")
    val bound = 2 * ((count + BlockSize - 1) / BlockSize) + 2
    if (linked > bound) fail(s"$linked blocks for $count entries (bound $bound)")
    var located = 0
    var v = 0
    while (v < loc.length) {
      if (loc(v) >= 0) located += 1 else if (loc(v) != -1) fail(s"vertex $v located at ${loc(v)}")
      v += 1
    }
    if (located != count) fail(s"$located ids have a location, the order holds $count")
  }
}

object PeelOrder {

  /** Relative tolerance of the β-cut: a suffix within `CutTolerance` of
    * `beta · best` still qualifies, whatever the metric's density scale.
    */
  val CutTolerance = 1e-9

  /** Relative margin of the walk's stop test against float rounding. */
  private val Slack = 1e-9

  /** log2 of the block size (256 entries). */
  private[core] final val BlockBits = 8
  private[core] final val BlockSize = 1 << BlockBits
  private[core] final val BlockMask = BlockSize - 1

  // Labels start high enough for 2^16 head blocks and are spread `Gap` apart.
  private val Gap = 1L << 24
  private val FirstLabel = Gap << 16
  private val MaxLabel = 1L << 52

  /** Build an order from parallel vertex/weight arrays (head first), in full
    * blocks. `maxVertexId` sizes the position index, with `Growth`'s head
    * room.
    */
  def fromArrays(vs: Array[Int], ws: Array[Double], maxVertexId: Int): PeelOrder = {
    require(vs.length == ws.length, "vertex/weight arrays must align")
    val blocks = (vs.length + BlockSize - 1) / BlockSize
    val o = new PeelOrder(blocks + blocks / 4 + 4, maxVertexId)
    var i = 0
    while (i < vs.length) {
      val len = math.min(BlockSize, vs.length - i)
      val b = o.open(-1)
      var s = 0
      var m = Double.NegativeInfinity
      while (s < len) {
        o.put((b << BlockBits) | s, vs(i + s), ws(i + s))
        if (ws(i + s) > m) m = ws(i + s)
        s += 1
      }
      o.seal(b, len, m)
      i += len
    }
    o.endIdx = vs.length
    o.writes = 0
    o
  }

  /** An empty order over an empty graph. */
  def empty: PeelOrder = fromArrays(Array.empty, Array.empty, 0)
}
