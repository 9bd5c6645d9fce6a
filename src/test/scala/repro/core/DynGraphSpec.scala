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

  test("property: the one incidence list matches a reference multiset of directed edges") {
    (1L to 20L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val n = 2 + rng.nextInt(7) // few vertices: many parallel and antiparallel edges
      val g = new DynGraph()
      g.ensureVertex(n - 1)
      val prior = Array.fill(n)((rng.nextInt(4) * 0.5))
      (0 until n).foreach(v => g.setVertexWeight(v, prior(v)))
      val ref = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Double)]
      (0 until 400).foreach { step =>
        val clue = s"seed $seed step $step"
        val a = rng.nextInt(n); var b = rng.nextInt(n)
        while (b == a) b = rng.nextInt(n)
        if (rng.nextInt(5) < 3) {
          val w = (1 + rng.nextInt(8)) * 0.25 // dyadic: every sum below is exact
          g.addEdge(a, b, w)
          ref += ((a, b, w))
        } else {
          val w = g.removeEdge(a, b)
          val i = ref.indexWhere(e => e._1 == a && e._2 == b && e._3 == w)
          if (w.isNaN) assert(!ref.exists(e => e._1 == a && e._2 == b), s"$clue: ($a, $b) not found")
          else {
            assert(i >= 0, s"$clue: removed ($a, $b, $w), which was not there")
            ref.remove(i)
          }
        }
        assert(g.numEdges == ref.length, clue)
        val active = Array.fill(n)(rng.nextBoolean())
        (0 until n).foreach { v =>
          val out = ref.filter(_._1 == v).map(e => (e._2, e._3))
          val in = ref.filter(_._2 == v).map(e => (e._1, e._3))
          assert(g.outDegree(v) == out.length && g.inDegree(v) == in.length, s"$clue: degrees of $v")
          assert(g.degree(v) == out.length + in.length, s"$clue: degree of $v")
          val visited = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]
          g.foreachIncidentOut(v)((x, w) => visited += ((x, w)))
          assert(visited.sorted == out.sorted, s"$clue: out-edges of $v")
          val list = (0 until g.count(v)).map(i => (g.nbrs(v)(i), g.wts(v)(i)))
          assert(list.sorted == (out ++ in).sorted, s"$clue: incidence list of $v")
          val all = out ++ in
          assert(g.incidentWeight(v) == prior(v) + all.map(_._2).sum, s"$clue: incidentWeight of $v")
          assert(g.peelWeight(v)(_ => true) == g.incidentWeight(v), s"$clue: peelWeight of $v")
          assert(g.peelWeight(v)(active) == prior(v) + all.filter(e => active(e._1)).map(_._2).sum,
            s"$clue: peelWeight of $v against an active set")
        }
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
