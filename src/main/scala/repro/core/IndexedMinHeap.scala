package repro.core

/** Array-backed 4-ary min-heap over dense non-negative integer ids with
  * O(log n) insert / pop / `addTo` (a key change by a delta) and O(1)
  * contains / key lookup.
  *
  * Ordering is lexicographic on `(key, id)` so every consumer of the heap is
  * deterministic: the static peeling (Algorithm 1 of the paper) and the
  * incremental reordering (§4.1 / Algorithm 2) break weight ties identically,
  * which makes "incremental sequence == static sequence" an exact, testable
  * equality rather than a density-only statement.
  *
  * Layout: `ids` and `keys` are indexed by heap slot, so a sift compare reads
  * two adjacent slots instead of chasing `keys(id)`; `pos` maps an id to its
  * slot. There is a single key array, `keyOf(id) = keys(pos(id))`. A sift
  * carries the moving entry in registers and shifts the others into the hole,
  * writing it once at its final slot. Four children per node halve the depth
  * of a binary heap; the four are adjacent in memory.
  *
  * The heap is reusable across reorder calls: `clear()` resets only the
  * entries that are currently present (O(size)), not the whole id space.
  */
final class IndexedMinHeap(initialCapacity: Int = 16) {
  private var ids  = new Array[Int](math.max(1, initialCapacity))    // slot -> id
  private var keys = new Array[Double](math.max(1, initialCapacity)) // slot -> key
  private var pos  = absent(math.max(1, initialCapacity)) // id -> slot, -1 when absent
  private var n    = 0

  /** Number of entries currently in the heap. */
  def size: Int = n
  def isEmpty: Boolean  = n == 0
  def nonEmpty: Boolean = n > 0

  private def absent(n: Int): Array[Int] = {
    val a = new Array[Int](n)
    java.util.Arrays.fill(a, -1)
    a
  }

  /** Make ids `0 until n` addressable (`Growth`'s rule). */
  def reserve(n: Int): Unit =
    if (n > pos.length) {
      val newPos = absent(Growth.capacity(pos.length, n))
      System.arraycopy(pos, 0, newPos, 0, pos.length)
      pos = newPos
    }

  /** Grow internal arrays so `id` is addressable and one more entry fits. */
  private def ensureId(id: Int): Unit = {
    reserve(id + 1)
    if (n >= ids.length) {
      val cap = math.max(ids.length * 2, n + 1)
      ids = java.util.Arrays.copyOf(ids, cap)
      keys = java.util.Arrays.copyOf(keys, cap)
    }
  }

  /** True iff `id` is currently in the heap. */
  def contains(id: Int): Boolean = id < pos.length && pos(id) >= 0

  /** Current key of `id`; requires `contains(id)`. */
  def keyOf(id: Int): Double = {
    requirePresent(id)
    keys(pos(id))
  }

  // These checks throw what `require` throws, but build the message only on
  // failure. `require`'s by-name message is a closure capturing `id`; once
  // any `require` in the JVM has failed, the JIT allocates it on every call.
  @inline private def requirePresent(id: Int): Unit =
    if (!contains(id)) throw new IllegalArgumentException(s"requirement failed: id $id not in heap")

  @inline private def requireAbsent(id: Int): Unit =
    if (pos(id) >= 0) throw new IllegalArgumentException(s"requirement failed: id $id already in heap")

  @inline private def before(ka: Double, a: Int, kb: Double, b: Int): Boolean =
    ka < kb || (ka == kb && a < b)

  /** Place `(key, id)` at or above slot `i0`, whose entry is a hole. */
  private def siftUp(i0: Int, id: Int, key: Double): Unit = {
    var i = i0
    var moving = true
    while (moving && i > 0) {
      val p = (i - 1) >> 2
      val pid = ids(p); val pk = keys(p)
      if (before(key, id, pk, pid)) {
        ids(i) = pid; keys(i) = pk; pos(pid) = i
        i = p
      } else moving = false
    }
    ids(i) = id; keys(i) = key; pos(id) = i
  }

  /** Place `(key, id)` at or below slot `i0`, whose entry is a hole. */
  private def siftDown(i0: Int, id: Int, key: Double): Unit = {
    var i = i0
    var moving = true
    while (moving) {
      val first = 4 * i + 1
      if (first >= n) moving = false
      else {
        var m = first
        var mid = ids(first); var mk = keys(first)
        val last = math.min(first + 4, n)
        var c = first + 1
        while (c < last) {
          val cid = ids(c); val ck = keys(c)
          if (before(ck, cid, mk, mid)) { m = c; mid = cid; mk = ck }
          c += 1
        }
        if (before(mk, mid, key, id)) {
          ids(i) = mid; keys(i) = mk; pos(mid) = i
          i = m
        } else moving = false
      }
    }
    ids(i) = id; keys(i) = key; pos(id) = i
  }

  /** Insert a new id; requires it is not already present. */
  def insert(id: Int, key: Double): Unit = {
    require(id >= 0, "ids must be non-negative")
    ensureId(id)
    requireAbsent(id)
    n += 1
    siftUp(n - 1, id, key)
  }

  /** Add `delta` to the key of an existing id. */
  def addTo(id: Int, delta: Double): Unit = {
    requirePresent(id)
    val i = pos(id)
    val old = keys(i)
    val key = old + delta
    if (key < old) siftUp(i, id, key) else siftDown(i, id, key)
  }

  /** Id with the smallest (key, id); requires nonEmpty. */
  def minId: Int = { require(n > 0, "heap is empty"); ids(0) }

  /** Smallest key; requires nonEmpty. */
  def minKey: Double = { require(n > 0, "heap is empty"); keys(0) }

  /** Remove and return the id with the smallest (key, id). */
  def popMin(): Int = {
    require(n > 0, "heap is empty")
    val top = ids(0)
    pos(top) = -1
    n -= 1
    if (n > 0) siftDown(0, ids(n), keys(n))
    top
  }

  /** Remove all entries; O(current size). */
  def clear(): Unit = {
    var i = 0
    while (i < n) { pos(ids(i)) = -1; i += 1 }
    n = 0
  }
}
