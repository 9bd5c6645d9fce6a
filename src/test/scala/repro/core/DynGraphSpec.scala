package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DynGraphSpec extends AnyFunSuite {

  test("empty graph") {
    val g = new DynGraph()
    assert(g.numVertices == 0 && g.numEdges == 0 && g.totalF == 0.0)
  }

  test("ensureVertex grows the id space; new vertices are weight-0 isolated") {
    val g = new DynGraph()
    g.ensureVertex(4)
    assert(g.numVertices == 5)
    (0 to 4).foreach { v =>
      assert(g.vertexWeight(v) == 0.0 && g.incidentWeight(v) == 0.0 && g.degree(v) == 0)
    }
  }

  test("arrays indexed by vertex id grow to max(2·old, need + need/4), within the JVM's array limit") {
    assert(Growth.capacity(0, 100000) == 125000)     // sized at a load: a quarter of head room
    assert(Growth.capacity(16, 100000) == 125000)
    assert(Growth.capacity(125000, 125001) == 250000) // then geometric
    assert(Growth.capacity(16, 1) == 32)
    assert(Growth.capacity(1 << 30, (1 << 30) + 1) == Int.MaxValue - 8) // 2·old and need·5/4 overflow an Int
    assert(Growth.capacity(0, Int.MaxValue) == Int.MaxValue)
  }

  test("addEdge updates degrees, incident weights and totalF on both sides") {
    val g = new DynGraph()
    g.addEdge(0, 1, 2.5)
    assert(g.numVertices == 2 && g.numEdges == 1)
    assert(g.outDegree(0) == 1 && g.inDegree(0) == 0)
    assert(g.outDegree(1) == 0 && g.inDegree(1) == 1)
    assert(g.incidentWeight(0) == 2.5 && g.incidentWeight(1) == 2.5)
    assert(g.totalF == 2.5)
  }

  test("parallel edges accumulate") {
    val g = new DynGraph()
    g.addEdge(0, 1, 1.0)
    g.addEdge(0, 1, 2.0)
    g.addEdge(1, 0, 3.0)
    assert(g.numEdges == 3)
    assert(g.incidentWeight(0) == 6.0 && g.incidentWeight(1) == 6.0)
    assert(g.degree(0) == 3 && g.degree(1) == 3)
  }

  test("self-loops are rejected") {
    val g = new DynGraph()
    intercept[IllegalArgumentException](g.addEdge(2, 2, 1.0))
  }

  test("non-positive edge weights are rejected") {
    val g = new DynGraph()
    intercept[IllegalArgumentException](g.addEdge(0, 1, 0.0))
    intercept[IllegalArgumentException](g.addEdge(0, 1, -1.0))
  }

  test("negative vertex weights are rejected") {
    val g = new DynGraph()
    g.ensureVertex(0)
    intercept[IllegalArgumentException](g.setVertexWeight(0, -0.1))
  }

  test("setVertexWeight keeps totalF and incidentWeight in sync") {
    val g = new DynGraph()
    g.addEdge(0, 1, 2.0)
    g.setVertexWeight(0, 3.0)
    assert(g.totalF == 5.0)
    assert(g.incidentWeight(0) == 5.0)
    g.setVertexWeight(0, 1.0)
    assert(g.totalF == 3.0 && g.incidentWeight(0) == 3.0)
  }

  test("foreachIncidentOut visits only out-edges") {
    val g = new DynGraph()
    g.addEdge(0, 1, 1.0); g.addEdge(2, 0, 4.0)
    var seen = List.empty[Int]
    g.foreachIncidentOut(0)((v, _) => seen ::= v)
    assert(seen == List(1))
  }

  test("peelWeight respects the active-set predicate") {
    val g = new DynGraph()
    g.addEdge(0, 1, 1.0); g.addEdge(0, 2, 2.0); g.addEdge(3, 0, 4.0)
    g.setVertexWeight(0, 0.5)
    assert(g.peelWeight(0)(_ => true) == 7.5)
    assert(g.peelWeight(0)(v => v != 2) == 5.5)
    assert(g.peelWeight(0)(_ => false) == 0.5)
  }

  test("removeEdge removes one parallel occurrence and fixes accounting") {
    val g = new DynGraph()
    g.addEdge(0, 1, 1.0)
    g.addEdge(0, 1, 2.0)
    val w = g.removeEdge(0, 1)
    assert(w == 1.0 || w == 2.0)
    assert(g.numEdges == 1)
    assert(math.abs(g.incidentWeight(0) - (3.0 - w)) < 1e-12)
    assert(math.abs(g.totalF - (3.0 - w)) < 1e-12)
  }

  test("removeEdge on a missing edge returns NaN and changes nothing") {
    val g = new DynGraph()
    g.addEdge(0, 1, 1.0)
    assert(g.removeEdge(1, 0).isNaN) // direction matters
    assert(g.numEdges == 1 && g.totalF == 1.0)
  }

  test("property: incidentWeight always equals the adjacency sum plus prior") {
    (1L to 10L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val g = new DynGraph()
      (0 until 300).foreach { _ =>
        val a = rng.nextInt(40); var b = rng.nextInt(40)
        while (b == a) b = rng.nextInt(40)
        g.addEdge(a, b, 1 + rng.nextInt(50) / 10.0)
      }
      (0 until 40 by 3).foreach(v => g.setVertexWeight(v, rng.nextInt(10).toDouble))
      (0 until g.numVertices).foreach { v =>
        val s = g.peelWeight(v)(_ => true)
        assert(math.abs(s - g.incidentWeight(v)) < 1e-9, s"seed $seed vertex $v")
      }
    }
  }

  test("property: totalF equals sum of priors plus sum of out-edge weights") {
    val g = new DynGraph()
    val rng = new scala.util.Random(7)
    (0 until 500).foreach { _ =>
      val a = rng.nextInt(30); var b = rng.nextInt(30)
      while (b == a) b = rng.nextInt(30)
      g.addEdge(a, b, 0.5 + rng.nextDouble())
    }
    var s = 0.0
    (0 until g.numVertices).foreach { v =>
      s += g.vertexWeight(v)
      g.foreachIncidentOut(v)((_, w) => s += w)
    }
    assert(math.abs(s - g.totalF) < 1e-9)
  }
}
