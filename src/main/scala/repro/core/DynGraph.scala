package repro.core

/** A mutable directed multigraph with non-negative vertex weights (`a_i`,
  * the vertex suspiciousness) and positive edge weights (`c_ij`, the edge
  * suspiciousness), as defined in §2.1 of the Spade paper.
  *
  * Design notes:
  *  - Vertices are dense ints `0 .. numVertices-1`; `ensureVertex` grows the
  *    id space, with head room (`Growth`). Isolated vertices are legal
  *    (weight-0 peel-first noise).
  *  - Parallel edges are allowed (a transaction graph has repeat purchases);
  *    the density metric sums every edge's weight, so the adjacency simply
  *    stores one entry per insertion.
  *  - Self-loops are rejected: a transaction always links two distinct
  *    accounts, and Eq. (2) of the paper is ambiguous for loops.
  *  - Edge suspiciousness is **frozen at insertion time** (FD's `esusp`
  *    depends on the current degree of the object vertex), so the graph
  *    stores the materialized weight per edge. This is what makes
  *    "incremental == static re-peel of the final weighted graph" an exact
  *    equivalence for every metric.
  *  - Each vertex has one incidence list, out-edges first. The peel walks
  *    (Eq. 2) read it whole; only the degree split, `removeEdge` and
  *    `foreachIncidentOut` see direction.
  *  - `incidentWeight(u)` maintains `w_u(S_0) = a_u + Σ incident c` — the
  *    peeling weight against the full vertex set, used both to seed
  *    Algorithm 1 and for the benign-edge test of Definition 4.1.
  */
final class DynGraph(initialVertexCapacity: Int = 16) {

  private var cap = math.max(1, initialVertexCapacity)

  private var a      = new Array[Double](cap) // vertex suspiciousness
  private var inc    = new Array[Double](cap) // a(u) + Σ incident edge weight
  // One incidence list per vertex: out-edges in slots [0, outCnt), in-edges
  // in [outCnt, cnt).
  private var cnt    = new Array[Int](cap)
  private var outCnt = new Array[Int](cap)
  private var nbr    = new Array[Array[Int]](cap)
  private var wt     = new Array[Array[Double]](cap)

  private var nV = 0
  private var nE = 0L
  private var sumA = 0.0
  private var sumC = 0.0

  /** Number of vertices (max id ever seen + 1). */
  def numVertices: Int = nV

  /** Number of (parallel-counted) edges. */
  def numEdges: Long = nE

  /** `f(V)` of Eq. (1): total vertex + edge suspiciousness of the graph. */
  def totalF: Double = sumA + sumC

  /** Grow the id space so `id` is a valid vertex. New vertices get a = 0. */
  def ensureVertex(id: Int): Unit = {
    require(id >= 0, "vertex ids must be non-negative")
    if (id >= cap) {
      val newCap = Growth.capacity(cap, id + 1)
      a      = java.util.Arrays.copyOf(a, newCap)
      inc    = java.util.Arrays.copyOf(inc, newCap)
      cnt    = java.util.Arrays.copyOf(cnt, newCap)
      outCnt = java.util.Arrays.copyOf(outCnt, newCap)
      nbr    = java.util.Arrays.copyOf(nbr, newCap)
      wt     = java.util.Arrays.copyOf(wt, newCap)
      cap = newCap
    }
    if (id >= nV) nV = id + 1
  }

  /** Vertex suspiciousness `a_u` (0 for never-weighted vertices). */
  def vertexWeight(u: Int): Double = { checkVertex(u); a(u) }

  /** Set `a_u`; keeps `totalF` and `incidentWeight` consistent. */
  def setVertexWeight(u: Int, w: Double): Unit = {
    require(w >= 0, s"vertex weight must be non-negative, got $w")
    checkVertex(u)
    sumA += w - a(u)
    inc(u) += w - a(u)
    a(u) = w
  }

  /** `w_u(S_0)`: the peeling weight of `u` against the full vertex set. */
  def incidentWeight(u: Int): Double = { checkVertex(u); inc(u) }

  def outDegree(u: Int): Int = { checkVertex(u); outCnt(u) }
  def inDegree(u: Int): Int  = { checkVertex(u); cnt(u) - outCnt(u) }

  /** Total (in + out) degree, counting parallel edges. */
  def degree(u: Int): Int = { checkVertex(u); cnt(u) }

  // Throws what `require` would, but builds the message only on failure
  // (see `IndexedMinHeap.requirePresent`): the merge calls it per vertex.
  @inline private[core] def checkVertex(u: Int): Unit =
    if (u < 0 || u >= nV)
      throw new IllegalArgumentException(s"requirement failed: vertex $u out of range [0, $nV)")

  // Raw adjacency for the package's allocation-free walks (the reorder
  // kernel and the static peel), which need no direction: a walk calls
  // `checkVertex` once, then reads `nbrs(u)(i)` / `wts(u)(i)` for
  // `i < count(u)`. No range check; the arrays are null while the count is 0.
  private[core] def nbrs(u: Int): Array[Int]   = nbr(u)
  private[core] def wts(u: Int): Array[Double] = wt(u)
  private[core] def count(u: Int): Int         = cnt(u)

  /** Make room in `u`'s list for one more edge. */
  private def grow(u: Int): Unit = {
    val c = cnt(u)
    if (nbr(u) == null) {
      nbr(u) = new Array[Int](4); wt(u) = new Array[Double](4)
    } else if (c == nbr(u).length) {
      nbr(u) = java.util.Arrays.copyOf(nbr(u), c * 2)
      wt(u) = java.util.Arrays.copyOf(wt(u), c * 2)
    }
  }

  /** Copy slot `from` of `u`'s list into slot `to`. */
  @inline private def move(u: Int, from: Int, to: Int): Unit = {
    nbr(u)(to) = nbr(u)(from); wt(u)(to) = wt(u)(from)
  }

  /** Insert a directed edge with materialized suspiciousness `w > 0`. */
  def addEdge(src: Int, dst: Int, w: Double): Unit = {
    require(src != dst, s"self-loop on $src rejected")
    require(w > 0, s"edge weight must be positive, got $w")
    ensureVertex(src); ensureVertex(dst)
    // An out-edge takes slot outCnt(src); the in-edge there moves to the end.
    grow(src)
    val o = outCnt(src)
    move(src, o, cnt(src))
    nbr(src)(o) = dst; wt(src)(o) = w
    outCnt(src) = o + 1; cnt(src) += 1
    grow(dst)
    nbr(dst)(cnt(dst)) = src; wt(dst)(cnt(dst)) = w
    cnt(dst) += 1
    inc(src) += w; inc(dst) += w
    sumC += w
    nE += 1
  }

  /** Remove one occurrence of edge (src, dst); returns its weight, or NaN if
    * absent. Used by the Appendix C.1 deletion extension. O(deg).
    */
  def removeEdge(src: Int, dst: Int): Double = {
    checkVertex(src); checkVertex(dst)
    val i = find(src, 0, outCnt(src), dst, Double.NaN)
    if (i < 0) return Double.NaN
    val w = wt(src)(i)
    // Parallel edges may carry different weights: the in-side removal must
    // delete the occurrence with the *same* weight, or the two sides drift
    // apart.
    val j = find(dst, outCnt(dst), cnt(dst), src, w)
    assert(j >= 0, "adjacency lists out of sync")
    // The last out-edge fills slot i, and the last in-edge fills its slot.
    val o = outCnt(src) - 1
    move(src, o, i)
    move(src, cnt(src) - 1, o)
    outCnt(src) = o; cnt(src) -= 1
    move(dst, cnt(dst) - 1, j)
    cnt(dst) -= 1
    inc(src) -= w; inc(dst) -= w
    sumC -= w
    nE -= 1
    w
  }

  /** The first slot of `owner`'s list in `[from, until)` that holds `target`
    * (and `weight`, unless NaN), or -1.
    */
  private def find(owner: Int, from: Int, until: Int, target: Int, weight: Double): Int = {
    val arrN = nbr(owner); val arrW = wt(owner)
    var i = from
    while (i < until) {
      if (arrN(i) == target && (weight.isNaN || arrW(i) == weight)) return i
      i += 1
    }
    -1
  }

  /** Visit only the out-edges of `u` as `(dst, weight)` — lets callers count
    * each directed edge exactly once when summing `f_E(S)`.
    */
  @inline def foreachIncidentOut(u: Int)(f: (Int, Double) => Unit): Unit = {
    checkVertex(u)
    val on = nbr(u); val ow = wt(u); val oc = outCnt(u)
    var i = 0
    while (i < oc) { f(on(i), ow(i)); i += 1 }
  }

  /** Peeling weight of `u` against an arbitrary active set (Eq. 2).
    * `active(v)` must say whether `v` is still in the set. O(deg(u)).
    */
  def peelWeight(u: Int)(active: Int => Boolean): Double = {
    checkVertex(u)
    var w = a(u)
    val ns = nbr(u); val ws = wt(u); val c = cnt(u)
    var i = 0
    while (i < c) { if (active(ns(i))) w += ws(i); i += 1 }
    w
  }
}

/** The one growth rule of the arrays indexed by vertex id: `DynGraph`'s,
  * `PeelOrder`'s locations, the merge kernel's marks and the heap's
  * positions. An array that must hold `need` ids grows to
  * `max(2·old, need + need/4)`, so an array sized at a bulk load (`old` =
  * 0) keeps a quarter of head room: the first new accounts after a load
  * copy nothing, and a stream that keeps adding ids still grows
  * geometrically.
  */
private[core] object Growth {
  def capacity(old: Int, need: Int): Int = {
    val grown = math.max(2L * old, need + (need >> 2).toLong)
    math.max(need, math.min(grown, Int.MaxValue - 8L).toInt) // the JVM's largest array
  }
}
