package repro.core

/** Dense-subgraph enumeration (Appendix C.2): peel, report the densest
  * community, remove it (its vertices and all incident edges), re-peel the
  * remainder, and repeat until the density drops below a threshold or the
  * requested number of communities is found.
  *
  * Works on a copy of the graph — the caller's evolving state is untouched,
  * which is what the fraud moderators' offline enumeration needs. The paper
  * notes the re-peel could reuse the deletion-incremental machinery; the
  * straightforward static re-peel on the shrinking residual graph is exactly
  * correct and is what we implement (enumeration appears in no timed table).
  */
object Enumeration {

  /** Enumerate up to `maxCommunities` disjoint dense communities with
    * density >= `minDensity`, densest first.
    */
  def enumerate(graph: DynGraph, maxCommunities: Int = 16, minDensity: Double = 1e-9): Seq[Community] = {
    require(maxCommunities > 0, "maxCommunities must be positive")
    val removed = new Array[Boolean](math.max(1, graph.numVertices))
    val out = Seq.newBuilder[Community]
    var found = 0
    var done = false
    while (!done && found < maxCommunities) {
      val residual = residualGraph(graph, removed)
      if (residual.numEdges == 0) done = true
      else {
        val c = StaticPeeling.detect(residual)
        if (c.density < minDensity || c.size == 0) done = true
        else {
          out += c
          c.members.foreach(v => removed(v) = true)
          found += 1
        }
      }
    }
    out.result()
  }

  /** Copy of `g` without the removed vertices' incident edges. Vertex ids
    * are preserved (removed vertices stay as isolated weight-0 ids so member
    * arrays of successive communities share one id space).
    */
  private def residualGraph(g: DynGraph, removed: Array[Boolean]): DynGraph = {
    val r = new DynGraph()
    if (g.numVertices == 0) return r
    r.ensureVertex(g.numVertices - 1)
    var u = 0
    while (u < g.numVertices) {
      if (!removed(u)) {
        r.setVertexWeight(u, g.vertexWeight(u))
        g.foreachIncidentOut(u) { (v, c) => if (!removed(v)) r.addEdge(u, v, c) }
      }
      u += 1
    }
    r
  }
}
