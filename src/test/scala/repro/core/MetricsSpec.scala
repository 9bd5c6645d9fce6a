package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** §3 / Appendix E–F — the pluggable suspiciousness metrics and their
  * axiomatic properties.
  */
class MetricsSpec extends AnyFunSuite {
  import TestUtil._

  test("DG: every edge weighs 1, vertices weigh 0") {
    val g = new DynGraph()
    assert(Suspiciousness.DG.esusp(Tx(0, 1, 123.45), g) == 1.0)
    assert(Suspiciousness.DG.vsusp(5, g) == 0.0)
  }

  test("DW: the edge weight is the transaction amount") {
    val g = new DynGraph()
    assert(Suspiciousness.DW.esusp(Tx(0, 1, 42.5), g) == 42.5)
    intercept[IllegalArgumentException](Suspiciousness.DW.esusp(Tx(0, 1, 0.0), g))
  }

  test("FD: esusp = 1/log(x + 5) with x = object-vertex in-degree incl. this edge") {
    val g = new DynGraph()
    g.addEdge(0, 1, 1.0)
    g.addEdge(2, 1, 1.0)
    // vertex 1 has in-degree 2; a third edge sees x = 3
    val w = Suspiciousness.FD.esusp(Tx(3, 1, 9.9), g)
    assert(math.abs(w - 1.0 / math.log(3 + 5)) < 1e-12)
    // a brand-new merchant sees x = 1
    val w0 = Suspiciousness.FD.esusp(Tx(0, 99, 1.0), g)
    assert(math.abs(w0 - 1.0 / math.log(1 + 5)) < 1e-12)
  }

  test("FD: popular merchants get lighter edges (camouflage resistance)") {
    val g = new DynGraph()
    (0 until 50).foreach(i => g.addEdge(50 + i, 1, 1.0))
    val popular = Suspiciousness.FD.esusp(Tx(0, 1, 1.0), g)
    val fresh = Suspiciousness.FD.esusp(Tx(0, 2, 1.0), g)
    assert(popular < fresh)
  }

  test("FD priors are validated non-negative") {
    val bad = new Suspiciousness.Fraudar(prior = _ => -1.0)
    intercept[IllegalArgumentException](bad.vsusp(0, new DynGraph()))
  }

  /** DG weights, with `prior` for vertex `bad` and 0 for every other vertex. */
  private def priorOn(bad: Int, prior: Double): Suspiciousness = new Suspiciousness {
    val name = "DG-prior"
    def vsusp(u: Int, g: DynGraph): Double = if (u == bad) prior else 0.0
    def esusp(tx: Tx, g: DynGraph): Double = 1.0
  }

  test("a bad prior on a new vertex rejects the whole batch before any change") {
    // The paper graph has vertices 0..4. The batch's first edge is between
    // existing vertices; its second creates 5 (a gap id) and 6.
    val batch = Seq(Tx(0, 3, 1.0), Tx(1, 6, 1.0))
    Seq[Suspiciousness](
      new Suspiciousness.Fraudar(prior = u => if (u == 6) -1.0 else 0.0), // FD's own check throws
      priorOn(6, -1.0), priorOn(5, -0.5), priorOn(5, Double.NaN), priorOn(6, Double.PositiveInfinity),
    ).foreach { m =>
      val spade = loadedSpade(m, paperEdges)
      val order = spade.order.toVertexSeq
      val weights = spade.order.toWeightSeq
      intercept[IllegalArgumentException](spade.insertBatchEdges(batch))
      assert(spade.graph.numVertices == 5 && spade.graph.numEdges == 4, m.name)
      assert(spade.order.toVertexSeq == order && spade.order.toWeightSeq == weights, m.name)
      intercept[IllegalArgumentException](spade.insertGrouped(batch(1)))
      assert(spade.pendingCount == 0 && spade.graph.numVertices == 5, m.name)
      spade.insertBatchEdges(Seq(Tx(0, 3, 1.0), Tx(1, 4, 1.0)))
      assertMatchesStatic(spade, s"${m.name} after the rejected batch", exact = false)

      val fresh = new Spade(m)
      intercept[IllegalArgumentException](fresh.insertBatchEdges(paperEdges ++ batch))
      assert(fresh.graph.numVertices == 0 && fresh.order.length == 0, m.name)
    }
  }

  test("Property 3.1: DG/DW/FD weights satisfy a_i >= 0 and c_ij > 0 on a replayed stream") {
    val txs = randomTxs(20, 100, 31)
    Suspiciousness.paperMetrics.foreach { m =>
      val g = new DynGraph()
      txs.foreach { t =>
        g.ensureVertex(math.max(t.src, t.dst))
        val a = m.vsusp(t.src, g)
        val c = m.esusp(t, g)
        assert(a >= 0, s"${m.name} vsusp")
        assert(c > 0, s"${m.name} esusp")
        g.addEdge(t.src, t.dst, c)
      }
    }
  }

  test("Axiom 1 (vertex suspiciousness): same size and edges, heavier vertices => denser") {
    // S = {0,1} with prior on 0; S' = {2,3}; identical single edge inside
    val g = new DynGraph()
    g.addEdge(0, 1, 2.0); g.addEdge(2, 3, 2.0)
    g.setVertexWeight(0, 1.5)
    def densityOf(s: Set[Int]): Double = {
      var f = 0.0
      s.foreach { u => f += g.vertexWeight(u); g.foreachIncidentOut(u)((v, c) => if (s(v)) f += c) }
      f / s.size
    }
    assert(densityOf(Set(0, 1)) > densityOf(Set(2, 3)))
  }

  test("Axiom 2 (edge suspiciousness): adding an internal edge raises g(S)") {
    val spade = loadedSpade(Suspiciousness.DW, Seq(Tx(0, 1, 3.0), Tx(1, 2, 3.0), Tx(2, 0, 3.0)))
    val before = spade.detect().density
    spade.insertEdge(Tx(0, 2, 1.0))
    assert(spade.detect().density > before)
  }

  test("Axiom 3 (concentration): same mass on fewer vertices is denser") {
    val g = new DynGraph()
    g.addEdge(0, 1, 6.0)                                  // f = 6 on 2 vertices
    g.addEdge(2, 3, 3.0); g.addEdge(3, 4, 3.0)            // f = 6 on 3 vertices
    val c = StaticPeeling.detect(g)
    assert(c.memberSet == Set(0, 1))
    assert(math.abs(c.density - 3.0) < 1e-9)
  }

  test("the three paper metrics rank a planted block differently but all find it") {
    val bg = randomTxs(30, 60, 41).map(_.copy(amount = 1.0))
    val block = for { c <- 30 until 34; m <- 34 until 37; _ <- 0 until 2 } yield Tx(c, m, 1.0)
    Suspiciousness.paperMetrics.foreach { m =>
      val spade = loadedSpade(m, bg ++ block)
      val community = spade.detect()
      assert((30 until 37).count(community.memberSet.contains) >= 6,
        s"${m.name} missed the planted block: ${community.memberSet}")
    }
  }

  test("about 20 lines of user code implement FD on Spade (Listing 2 shape)") {
    // The programmability claim: a custom metric is just two functions.
    val custom = new Suspiciousness {
      val name = "custom-FD"
      def vsusp(u: Int, g: DynGraph): Double = 0.0
      def esusp(tx: Tx, g: DynGraph): Double =
        1.0 / math.log((if (tx.dst < g.numVertices) g.inDegree(tx.dst) + 1 else 1) + 5.0)
    }
    val txs = randomTxs(15, 50, 19)
    val a = loadedSpade(custom, txs)
    val b = loadedSpade(Suspiciousness.FD, txs)
    assert(a.order.toVertexSeq == b.order.toVertexSeq)
    assert(math.abs(a.detect().density - b.detect().density) < 1e-12)
  }
}
