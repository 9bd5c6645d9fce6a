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
  *  - `incidentWeight(u)` maintains `w_u(S_0) = a_u + Σ incident c` — the
  *    peeling weight against the full vertex set, used both to seed
  *    Algorithm 1 and for the benign-edge test of Definition 4.1.
  */
final class DynGraph(initialVertexCapacity: Int = 16) {

  private var cap = math.max(1, initialVertexCapacity)

  private var a      = new Array[Double](cap) // vertex suspiciousness
  private var inc    = new Array[Double](cap) // a(u) + Σ incident edge weight
  private var outCnt = new Array[Int](cap)
  private var inCnt  = new Array[Int](cap)
  private var outNbr = new Array[Array[Int]](cap)
  private var outW   = new Array[Array[Double]](cap)
  private var inNbr  = new Array[Array[Int]](cap)
  private var inW    = new Array[Array[Double]](cap)

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
      outCnt = java.util.Arrays.copyOf(outCnt, newCap)
      inCnt  = java.util.Arrays.copyOf(inCnt, newCap)
      outNbr = java.util.Arrays.copyOf(outNbr, newCap)
      outW   = java.util.Arrays.copyOf(outW, newCap)
      inNbr  = java.util.Arrays.copyOf(inNbr, newCap)
      inW    = java.util.Arrays.copyOf(inW, newCap)
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
  def inDegree(u: Int): Int  = { checkVertex(u); inCnt(u) }

  /** Total (in + out) degree, counting parallel edges. */
  def degree(u: Int): Int = outDegree(u) + inDegree(u)

  // Throws what `require` would, but builds the message only on failure
  // (see `IndexedMinHeap.requirePresent`): the merge calls it per vertex.
  @inline private[core] def checkVertex(u: Int): Unit =
    if (u < 0 || u >= nV)
      throw new IllegalArgumentException(s"requirement failed: vertex $u out of range [0, $nV)")

  // Raw adjacency for the package's allocation-free walks (the reorder
  // kernel and the static peel). No range check: a walk calls `checkVertex`
  // once, then reads `outNbrs(u)(i)` / `outWts(u)(i)` for `i < outCount(u)`,
  // and the same for in-edges. The arrays are null while the count is 0.
  private[core] def outNbrs(u: Int): Array[Int]    = outNbr(u)
  private[core] def outWts(u: Int): Array[Double]  = outW(u)
  private[core] def outCount(u: Int): Int          = outCnt(u)
  private[core] def inNbrs(u: Int): Array[Int]     = inNbr(u)
  private[core] def inWts(u: Int): Array[Double]   = inW(u)
  private[core] def inCount(u: Int): Int           = inCnt(u)

  private def append(nbrs: Array[Array[Int]], ws: Array[Array[Double]],
                     cnts: Array[Int], u: Int, v: Int, w: Double): Unit = {
    var arrN = nbrs(u); var arrW = ws(u)
    val c = cnts(u)
    if (arrN == null) {
      arrN = new Array[Int](4); arrW = new Array[Double](4)
      nbrs(u) = arrN; ws(u) = arrW
    } else if (c == arrN.length) {
      arrN = java.util.Arrays.copyOf(arrN, c * 2)
      arrW = java.util.Arrays.copyOf(arrW, c * 2)
      nbrs(u) = arrN; ws(u) = arrW
    }
    arrN(c) = v; arrW(c) = w
    cnts(u) = c + 1
  }

  /** Insert a directed edge with materialized suspiciousness `w > 0`. */
  def addEdge(src: Int, dst: Int, w: Double): Unit = {
    require(src != dst, s"self-loop on $src rejected")
    require(w > 0, s"edge weight must be positive, got $w")
    ensureVertex(src); ensureVertex(dst)
    append(outNbr, outW, outCnt, src, dst, w)
    append(inNbr, inW, inCnt, dst, src, w)
    inc(src) += w; inc(dst) += w
    sumC += w
    nE += 1
  }

  /** Remove one occurrence of edge (src, dst); returns its weight, or NaN if
    * absent. Used by the Appendix C.1 deletion extension. O(deg).
    */
  def removeEdge(src: Int, dst: Int): Double = {
    checkVertex(src); checkVertex(dst)
    val w = removeFrom(outNbr(src), outW(src), outCnt, src, dst, Double.NaN)
    if (w.isNaN) return Double.NaN
    // Parallel edges may carry different weights — the in-side removal must
    // delete the occurrence with the *same* weight, or the two adjacency
    // lists drift apart.
    val w2 = removeFrom(inNbr(dst), inW(dst), inCnt, dst, src, w)
    assert(!w2.isNaN, "adjacency lists out of sync")
    inc(src) -= w; inc(dst) -= w
    sumC -= w
    nE -= 1
    w
  }

  /** Remove the first entry matching `target` (and `weight`, unless NaN);
    * returns the removed weight or NaN when absent.
    */
  private def removeFrom(arrN: Array[Int], arrW: Array[Double],
                         cnts: Array[Int], owner: Int, target: Int,
                         weight: Double): Double = {
    if (arrN == null) return Double.NaN
    val c = cnts(owner)
    var i = 0
    while (i < c) {
      if (arrN(i) == target && (weight.isNaN || arrW(i) == weight)) {
        val w = arrW(i)
        arrN(i) = arrN(c - 1); arrW(i) = arrW(c - 1)
        cnts(owner) = c - 1
        return w
      }
      i += 1
    }
    Double.NaN
  }

  /** Visit only the out-edges of `u` as `(dst, weight)` — lets callers count
    * each directed edge exactly once when summing `f_E(S)`.
    */
  @inline def foreachIncidentOut(u: Int)(f: (Int, Double) => Unit): Unit = {
    checkVertex(u)
    val on = outNbr(u); val ow = outW(u); val oc = outCnt(u)
    var i = 0
    while (i < oc) { f(on(i), ow(i)); i += 1 }
  }

  /** Peeling weight of `u` against an arbitrary active set (Eq. 2).
    * `active(v)` must say whether `v` is still in the set. O(deg(u)).
    */
  def peelWeight(u: Int)(active: Int => Boolean): Double = {
    checkVertex(u)
    var w = a(u)
    val on = outNbr(u); val ow = outW(u); val oc = outCnt(u)
    var i = 0
    while (i < oc) { if (active(on(i))) w += ow(i); i += 1 }
    val nn = inNbr(u); val nw = inW(u); val ic = inCnt(u)
    i = 0
    while (i < ic) { if (active(nn(i))) w += nw(i); i += 1 }
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
