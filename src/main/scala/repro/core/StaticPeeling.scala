package repro.core

/** Algorithm 1 of the paper: the static greedy peeling baseline (DG / DW /
  * FD — they share this execution paradigm and differ only in the weights
  * already materialized in the graph).
  *
  * Iteratively removes the vertex with the smallest peeling weight
  * `w_u(S) = a_u + Σ_{(u,x) or (x,u), x in S} c` (Eq. 2), using an indexed
  * min-heap with decrease-key; ties break on vertex id so the result is
  * deterministic and bit-identical to the incremental reordering.
  * O(|E| log |V|).
  */
object StaticPeeling {

  /** Peel the whole graph; returns the peeling sequence with peel-time
    * weights. The densest prefix (the community) is `result.detect()`.
    */
  def peel(g: DynGraph): PeelOrder = {
    val n = g.numVertices
    val heap = new IndexedMinHeap(n)
    var u = 0
    while (u < n) { heap.insert(u, g.incidentWeight(u)); u += 1 }
    val seq = new Array[Int](n)
    val wts = new Array[Double](n)
    var i = 0
    while (heap.nonEmpty) {
      val w = heap.minKey
      val v = heap.popMin()
      seq(i) = v
      wts(i) = w
      // Take v's edges off the weights of its neighbours still in the heap.
      g.checkVertex(v)
      val nbrs = g.nbrs(v); val ews = g.wts(v); val cnt = g.count(v)
      var k = 0
      while (k < cnt) {
        if (heap.contains(nbrs(k))) heap.addTo(nbrs(k), -ews(k))
        k += 1
      }
      i += 1
    }
    PeelOrder.fromArrays(seq, wts, n - 1)
  }

  /** Convenience: peel and detect in one call (the "from scratch on every
    * update" baseline the paper's static columns measure).
    */
  def detect(g: DynGraph): Community = peel(g).detect()

  /** Exhaustive `S*` for tiny graphs (≤ ~20 vertices): maximizes `g` over all
    * non-empty subsets. Test-oracle for the ½-approximation guarantee
    * (Lemma 2.1); never used in benchmarks.
    */
  def bruteForceOptimum(g: DynGraph): (Double, Set[Int]) = {
    val n = g.numVertices
    require(n <= 22, s"brute force limited to 22 vertices, got $n")
    var bestG = Double.NegativeInfinity
    var bestS = Set.empty[Int]
    var mask = 1
    val limit = 1 << n
    while (mask < limit) {
      var f = 0.0
      var u = 0
      while (u < n) {
        if ((mask & (1 << u)) != 0) {
          f += g.vertexWeight(u)
          // each directed edge (u, x) counted once, iff both endpoints in S
          var acc = 0.0
          g.foreachIncidentOut(u) { (x, c) => if ((mask & (1 << x)) != 0) acc += c }
          f += acc
        }
        u += 1
      }
      val size = Integer.bitCount(mask)
      val dens = f / size
      if (dens > bestG) { bestG = dens; bestS = (0 until n).filter(b => (mask & (1 << b)) != 0).toSet }
      mask += 1
    }
    (bestG, bestS)
  }
}
