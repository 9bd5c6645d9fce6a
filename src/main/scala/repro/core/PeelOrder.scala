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
  * `_weight` vectors of Listing 1), stored with *head room* so that new
  * vertices can be prepended in O(1) (§4.1 "vertex insertion": a fresh vertex
  * goes to the head of the sequence).
  *
  * Entries live in `seq(start until end)`; `posOf(v)` is the **absolute**
  * array index of `v`, so positions stay valid when `start` moves left.
  * Incremental reordering rewrites only the affected window `[a, b)` of the
  * arrays — the whole point of the paper is that this window is tiny.
  *
  * `Detect` walks back from the tail and stops as soon as no longer suffix
  * can qualify. The stop test reads a block-max index: the max `Δ` of each
  * block of 256 absolute indices and its running max over blocks. Writes
  * only flag their blocks dirty; the next walk re-scans the flagged blocks
  * (or the next merge does, since the merge kernel reads the block maxima
  * to move white runs a block at a time).
  */
final class PeelOrder private (
    private var seqArr: Array[Int],
    private var wtArr: Array[Double],
    private var posArr: Array[Int],
    private var startIdx: Int,
    private var endIdx: Int,
) {
  import PeelOrder._

  // blockMax(b): max Δ over block b ∩ [start, end); prefixMax(b): max of
  // blockMax(0..b). A write flags its block dirty; the dirty blocks lie in
  // [dirtyLo, dirtyHi). blockMax is valid for every block not flagged,
  // prefixMax for the blocks before the first flagged one.
  private var blockMax = new Array[Double](blocksFor(wtArr.length))
  private var prefixMax = new Array[Double](blockMax.length)
  private var dirty = Array.fill(blockMax.length)(true)
  private var dirtyLo = 0
  private var dirtyHi = wtArr.length
  private var walked = 0

  /** First (inclusive) absolute index of the sequence. */
  def start: Int = startIdx

  /** One past the last absolute index of the sequence. */
  def end: Int = endIdx

  /** Number of vertices in the order. */
  def length: Int = endIdx - startIdx

  /** Vertex peeled at absolute index `p`. */
  def vertexAt(p: Int): Int = { checkIdx(p); seqArr(p) }

  /** Peel-time weight `Δ` of the vertex at absolute index `p`. */
  def weightAt(p: Int): Double = { checkIdx(p); wtArr(p) }

  /** Absolute index of vertex `v` in the order. */
  def posOf(v: Int): Int = posArr(v)

  /** True iff vertex `v` is part of the order. */
  def containsVertex(v: Int): Boolean = v >= 0 && v < posArr.length && posArr(v) >= 0

  /** Entries the last `detect` / `detectThreshold` walk visited, tail first. */
  def lastWalkLength: Int = walked

  @inline private def checkIdx(p: Int): Unit =
    // `require` without its per-call message closure: see `IndexedMinHeap.requirePresent`.
    if (p < startIdx || p >= endIdx)
      throw new IllegalArgumentException(s"requirement failed: index $p outside [$startIdx, $endIdx)")

  @inline private def markDirty(p: Int): Unit = {
    dirty(p >> BlockBits) = true
    if (p < dirtyLo) dirtyLo = p
    if (p >= dirtyHi) dirtyHi = p + 1
  }

  // ---- raw access for the merge kernel ----
  // No range checks: the kernel writes only inside the window it read, and
  // marks the window dirty once, when it closes it (`markDirty(lo, hi)`).

  /** Write `v` with weight `w` at absolute index `p`, without marking dirty. */
  @inline private[core] def put(p: Int, v: Int, w: Double): Unit = {
    seqArr(p) = v
    wtArr(p) = w
    posArr(v) = p
  }

  /** Shift the `len` entries at `from` to `to <= from` (two `arraycopy`
    * calls and one `posOf` loop), without marking dirty.
    */
  private[core] def moveLeft(from: Int, to: Int, len: Int): Unit =
    if (to != from) {
      System.arraycopy(seqArr, from, seqArr, to, len)
      System.arraycopy(wtArr, from, wtArr, to, len)
      reindex(to, to + len)
    }

  /** Copy `vs(0 until len)` / `ws(0 until len)` to absolute index `p`,
    * without marking dirty.
    */
  private[core] def putAll(p: Int, vs: Array[Int], ws: Array[Double], len: Int): Unit = {
    System.arraycopy(vs, 0, seqArr, p, len)
    System.arraycopy(ws, 0, wtArr, p, len)
    reindex(p, p + len)
  }

  private def reindex(lo: Int, hi: Int): Unit = {
    var p = lo
    while (p < hi) { posArr(seqArr(p)) = p; p += 1 }
  }

  /** Mark `[lo, hi)` rewritten: the next walk re-scans its blocks. */
  private[core] def markDirty(lo: Int, hi: Int): Unit =
    if (lo < hi) {
      java.util.Arrays.fill(dirty, lo >> BlockBits, ((hi - 1) >> BlockBits) + 1, true)
      if (lo < dirtyLo) dirtyLo = lo
      if (hi > dirtyHi) dirtyHi = hi
    }

  /** Number of blocks of the index (every absolute index has one). */
  private[core] def blockCount: Int = blockMax.length

  /** Max `Δ` over block `b ∩ [start, end)`. Exact for a block the last
    * `refreshBlocks` left clean and nothing has written since.
    */
  @inline private[core] def blockMaxAt(b: Int): Double = blockMax(b)

  /** Overwrite the entry at absolute index `p`. */
  def set(p: Int, v: Int, w: Double): Unit = {
    checkIdx(p)
    seqArr(p) = v
    wtArr(p) = w
    posArr(v) = p
    markDirty(p)
  }

  /** Take `v` out of the order until `set` writes it back: `posOf(v)` reads
    * -1 meanwhile. The reorder uses it for a vertex emitted before the scan
    * reaches its slot, so every position test sees it as already peeled.
    */
  private[core] def vacate(v: Int): Unit = posArr(v) = -1

  /** Grow the vertex-id space of `posOf` (new ids map to -1). */
  def ensureVertex(id: Int): Unit = {
    if (id >= posArr.length) {
      val newCap = math.max(posArr.length * 2, id + 1)
      val np = new Array[Int](newCap)
      java.util.Arrays.fill(np, -1)
      System.arraycopy(posArr, 0, np, 0, posArr.length)
      posArr = np
    }
  }

  /** Prepend a brand-new vertex at the head of the order with weight `w`
    * (its `vsusp`). Amortized O(1); reallocates with fresh head room when the
    * head is full.
    */
  def prepend(v: Int, w: Double): Unit = {
    ensureVertex(v)
    require(posArr(v) < 0, s"vertex $v already in the order")
    if (startIdx == 0) {
      val room = math.max(1024, (endIdx - startIdx) / 2 + 1)
      val newLen = room + seqArr.length
      val ns = new Array[Int](newLen)
      val nw = new Array[Double](newLen)
      System.arraycopy(seqArr, 0, ns, room, endIdx)
      System.arraycopy(wtArr, 0, nw, room, endIdx)
      seqArr = ns; wtArr = nw
      var p = room
      while (p < room + endIdx) { posArr(ns(p)) = p; p += 1 }
      startIdx += room; endIdx += room
      blockMax = new Array[Double](blocksFor(newLen))
      prefixMax = new Array[Double](blockMax.length)
      dirty = Array.fill(blockMax.length)(true)
      dirtyLo = 0; dirtyHi = newLen
    }
    startIdx -= 1
    seqArr(startIdx) = v
    wtArr(startIdx) = w
    posArr(v) = startIdx
    markDirty(startIdx)
  }

  /** The peeling order as vertices, head first. */
  def toVertexSeq: IndexedSeq[Int] =
    (startIdx until endIdx).map(seqArr)

  /** The peel weights, aligned with `toVertexSeq`. */
  def toWeightSeq: IndexedSeq[Double] =
    (startIdx until endIdx).map(wtArr)

  /** `Detect()` of Listing 1: the argmax-density prefix-set.
    *
    * `f(S_i) = Σ_{j>i} Δ_j` (the peel weights telescope the metric), so a
    * backward walk over the weight vector finds
    * `arg max_i g(S_i) = f(S_i)/|S_i|`. Ties prefer the *larger* set, so a
    * union of equally dense fraud blocks is returned whole (Appendix B,
    * Fig. 14). The walk stops at the community (see `walk`).
    */
  def detect(): Community = {
    val w = walk(1.0)
    community(w.best, w.bestIdx)
  }

  /** Fig.-14 semantics for *spotting*: the largest suffix-set whose density
    * is still within `beta` of the best — equally dense fraud instances
    * "commonly form a dense subgraph" and are all returned, without paying
    * for a full enumeration per update. A suffix qualifies when its density
    * reaches `beta · best · (1 - CutTolerance)`. One pruned walk.
    */
  def detectThreshold(beta: Double): Community = {
    require(beta > 0 && beta <= 1, s"beta must be in (0, 1], got $beta")
    val w = walk(beta)
    community(w.best, w.cutIdx)
  }

  private def community(best: Double, idx: Int): Community =
    Community(if (idx == endIdx) 0.0 else best, java.util.Arrays.copyOfRange(seqArr, idx, endIdx))

  /** The one backward walk behind both detectors. It tracks the argmax
    * suffix (ties to the larger set) and the longest suffix reaching
    * `cut = beta · best · (1 - CutTolerance)`. `best` only grows, so every
    * suffix longer than the final argmax is tested against the final `cut`;
    * shorter ones cannot be the answer, since the argmax itself qualifies.
    *
    * Stop rule, exact by the mediant inequality
    * `(a+b)/(m+k) ≤ max(a/m, b/k)`: at a block boundary `p`, if the current
    * suffix density is below `cut` and every `Δ` in `[start, p)` is below
    * `cut` too, every longer suffix is below `cut ≤ best`, so neither answer
    * can change. The `Slack` margin keeps that true for the float-rounded
    * densities of the suffixes the walk skips (it covers summation rounding
    * up to ~10^6 entries). Cost: O(|answer| + 256) once the community
    * stands out, O(length) when it does not.
    */
  private def walk(beta: Double): Walk = {
    refreshBlocks()
    var suffix = 0.0
    var best = Double.NegativeInfinity
    var cut = Double.NegativeInfinity
    var bestIdx = endIdx
    var cutIdx = endIdx
    var stop = false
    var p = endIdx
    while (p > startIdx && !stop) {
      p -= 1
      suffix += wtArr(p)
      val dens = suffix / (endIdx - p)
      if (dens >= best) {
        best = dens; bestIdx = p; cutIdx = p
        cut = beta * best * (1 - CutTolerance)
      } else if (dens >= cut) cutIdx = p
      if ((p & BlockMask) == 0 && p > startIdx)
        stop = dens < cut && prefixMax((p >> BlockBits) - 1) < cut * (1 - Slack)
    }
    walked = endIdx - p
    Walk(best, bestIdx, cutIdx)
  }

  /** Re-scan the dirty blocks, then redo the running max from the first.
    * Afterwards every block max is exact. The blocks between two windows
    * of one merge were not written and are not re-scanned.
    */
  private[core] def refreshBlocks(): Unit = if (dirtyLo < dirtyHi) {
    val b0 = dirtyLo >> BlockBits
    val b1 = (dirtyHi - 1) >> BlockBits
    var b = b0
    while (b <= b1) {
      if (dirty(b)) {
        var m = Double.NegativeInfinity
        var p = math.max(b << BlockBits, startIdx)
        val until = math.min((b + 1) << BlockBits, endIdx)
        while (p < until) { if (wtArr(p) > m) m = wtArr(p); p += 1 }
        blockMax(b) = m
        dirty(b) = false
      }
      b += 1
    }
    var run = if (b0 == 0) Double.NegativeInfinity else prefixMax(b0 - 1)
    b = b0
    while (b < blockMax.length) {
      if (blockMax(b) > run) run = blockMax(b)
      prefixMax(b) = run
      b += 1
    }
    dirtyLo = Int.MaxValue; dirtyHi = Int.MinValue
  }

  /** Check the order's own invariants, throwing `IllegalStateException` at
    * the first one broken:
    *  - `posOf` and `seq` are inverse over `[start, end)`, and every id
    *    outside the order has `posOf = -1`;
    *  - every block not flagged dirty has the exact max `Δ`, and every
    *    block before the dirty range has the exact running max.
    * O(capacity); for tests.
    */
  private[core] def checkInvariants(): Unit = {
    def fail(msg: String): Nothing = throw new IllegalStateException(msg)
    var p = startIdx
    while (p < endIdx) {
      val v = seqArr(p)
      if (v < 0 || v >= posArr.length || posArr(v) != p)
        fail(s"seq($p) = $v but posOf($v) = ${if (v >= 0 && v < posArr.length) posArr(v) else "n/a"}")
      p += 1
    }
    var inOrder = 0
    var v = 0
    while (v < posArr.length) {
      val q = posArr(v)
      if (q >= 0) {
        if (q < startIdx || q >= endIdx || seqArr(q) != v)
          fail(s"posOf($v) = $q, but $v is not at that index of [$startIdx, $endIdx)")
        inOrder += 1
      } else if (q != -1) fail(s"posOf($v) = $q")
      v += 1
    }
    if (inOrder != endIdx - startIdx) fail(s"$inOrder ids have a position, the order holds ${endIdx - startIdx}")
    val firstDirty = if (dirtyLo < dirtyHi) dirtyLo >> BlockBits else blockMax.length
    var run = Double.NegativeInfinity
    var b = 0
    while (b < blockMax.length) {
      var m = Double.NegativeInfinity
      p = math.max(b << BlockBits, startIdx)
      val until = math.min((b + 1) << BlockBits, endIdx)
      while (p < until) { if (wtArr(p) > m) m = wtArr(p); p += 1 }
      if (m > run) run = m
      if (!dirty(b) && blockMax(b) != m) fail(s"block $b: max ${blockMax(b)}, recomputed $m")
      if (dirty(b) && b < firstDirty) fail(s"block $b is dirty outside the dirty range")
      if (b < firstDirty && prefixMax(b) != run) fail(s"block $b: running max ${prefixMax(b)}, recomputed $run")
      b += 1
    }
  }
}

object PeelOrder {

  /** Relative tolerance of the β-cut: a suffix within `CutTolerance` of
    * `beta · best` still qualifies, whatever the metric's density scale.
    */
  val CutTolerance = 1e-9

  /** Relative margin of the walk's stop test against float rounding. */
  private val Slack = 1e-9

  /** log2 of the block size of the block-max index (256 entries). */
  private[core] final val BlockBits = 8
  private val BlockMask = (1 << BlockBits) - 1
  private def blocksFor(capacity: Int): Int = (capacity >> BlockBits) + 1

  private final case class Walk(best: Double, bestIdx: Int, cutIdx: Int)

  /** Build an order from parallel vertex/weight arrays (head first), leaving
    * head room for future prepends. `maxVertexId` sizes the position index.
    */
  def fromArrays(vs: Array[Int], ws: Array[Double], maxVertexId: Int): PeelOrder = {
    require(vs.length == ws.length, "vertex/weight arrays must align")
    val room = math.max(1024, vs.length / 4)
    val seq = new Array[Int](room + vs.length)
    val wt  = new Array[Double](room + vs.length)
    System.arraycopy(vs, 0, seq, room, vs.length)
    System.arraycopy(ws, 0, wt, room, vs.length)
    val pos = new Array[Int](math.max(1, maxVertexId + 1))
    java.util.Arrays.fill(pos, -1)
    var i = 0
    while (i < vs.length) { pos(vs(i)) = room + i; i += 1 }
    new PeelOrder(seq, wt, pos, room, room + vs.length)
  }

  /** An empty order over an empty graph. */
  def empty: PeelOrder = fromArrays(Array.empty, Array.empty, -1 + 1)
}
