package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** §4.1 — peeling-sequence reordering with a single edge insertion. */
class InsertEdgeSpec extends AnyFunSuite {
  import TestUtil._

  test("Example 4.1: inserting (u1, u5) weight 4 reorders to O' = [u3, u2, u1, u4, u5]") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    assert(spade.order.toVertexSeq == Seq(0, 2, 1, 3, 4))
    spade.insertEdge(paperInsertion)
    assert(spade.order.toVertexSeq == Seq(2, 1, 0, 3, 4))
    assertMatchesStatic(spade, "example 4.1")
  }

  test("Example 4.1 trace: the affected window stops before u4 (tail untouched)") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    val posU4Before = spade.order.posOf(3)
    val posU5Before = spade.order.posOf(4)
    val st = spade.insertEdge(paperInsertion)
    // u4 keeps its absolute slot; only the head window and u5's slot move.
    assert(spade.order.posOf(3) == posU4Before)
    assert(spade.order.posOf(4) == posU5Before)
    assert(st.recovered <= 3, s"recovered ${st.recovered} — expected at most u1, u2, u5")
  }

  test("Lemma 4.1: the prefix before the earlier endpoint never changes") {
    (1L to 15L).foreach { seed =>
      val txs = randomTxs(40, 150, seed)
      val spade = loadedSpade(Suspiciousness.DW, txs)
      val before = spade.order.toVertexSeq
      val rng = new scala.util.Random(seed * 31)
      val e = Tx(rng.nextInt(40), (rng.nextInt(39) + 1 + rng.nextInt(40)) % 40, 5.0)
      if (e.src != e.dst) {
        val iMin = math.min(spade.order.posOf(e.src), spade.order.posOf(e.dst)) - spade.order.start
        spade.insertEdge(e)
        val after = spade.order.toVertexSeq
        assert(before.take(iMin) == after.take(iMin), s"seed $seed")
      }
    }
  }

  test("insertion between existing vertices matches a static re-peel (DW, random)") {
    (1L to 20L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val spade = loadedSpade(Suspiciousness.DW, randomTxs(30, 120, seed))
      (0 until 25).foreach { i =>
        val a = rng.nextInt(30); var b = rng.nextInt(30)
        while (b == a) b = rng.nextInt(30)
        spade.insertEdge(Tx(a, b, (4 + rng.nextInt(80)) * 0.25))
        if (i % 5 == 4) assertMatchesStatic(spade, s"seed $seed step $i")
      }
      assertMatchesStatic(spade, s"seed $seed final")
    }
  }

  test("insertion matches a static re-peel (DG — unweighted, many ties)") {
    (1L to 15L).foreach { seed =>
      val rng = new scala.util.Random(seed + 1000)
      val spade = loadedSpade(Suspiciousness.DG, randomTxs(25, 80, seed))
      (0 until 20).foreach { i =>
        val a = rng.nextInt(25); var b = rng.nextInt(25)
        while (b == a) b = rng.nextInt(25)
        spade.insertEdge(Tx(a, b, 1.0))
        if (i % 4 == 3) assertMatchesStatic(spade, s"DG seed $seed step $i")
      }
    }
  }

  test("insertion matches a static re-peel (FD — degree-dependent weights)") {
    (1L to 15L).foreach { seed =>
      val rng = new scala.util.Random(seed + 2000)
      val spade = loadedSpade(Suspiciousness.FD, randomTxs(25, 80, seed))
      (0 until 20).foreach { i =>
        val a = rng.nextInt(25); var b = rng.nextInt(25)
        while (b == a) b = rng.nextInt(25)
        spade.insertEdge(Tx(a, b, 1.0))
        if (i % 4 == 3) assertMatchesStatic(spade, s"FD seed $seed step $i", exact = false)
      }
    }
  }

  test("new vertices go to the head and end up in the static position") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    // edge to a brand-new vertex 7 (forces gap ids 5, 6 into existence)
    spade.insertEdge(Tx(7, 0, 1.5))
    assert(spade.order.length == 8)
    assertMatchesStatic(spade, "new vertex")
    assert(spade.order.containsVertex(5) && spade.order.containsVertex(6))
  }

  test("a chain of new-vertex insertions stays consistent") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    (5 to 12).foreach { v =>
      spade.insertEdge(Tx(v, v - 5, 2.0))
      assertMatchesStatic(spade, s"new vertex $v")
    }
  }

  test("parallel edge insertion accumulates weight and matches static") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    spade.insertEdge(Tx(0, 1, 2.0))
    spade.insertEdge(Tx(0, 1, 2.0))
    assertMatchesStatic(spade, "parallel edges")
  }

  test("an empty Spade merges its first inserts and matches the static peel") {
    val spade = new Spade(Suspiciousness.DW)
    intercept[IllegalArgumentException](spade.deleteEdge(0, 1)) // no vertex 0 yet
    spade.insertEdge(Tx(0, 1, 3.0))
    assert(spade.order.length == 2)
    assertMatchesStatic(spade, "first insert")
    spade.insertGrouped(Tx(2, 0, 1.0))
    spade.flushPending()
    spade.insertBatchEdges(Seq(Tx(3, 1, 2.0), Tx(1, 2, 0.5)))
    assertMatchesStatic(spade, "later inserts")
  }

  test("hybrid metric with vertex priors stays consistent under insertion") {
    val metric = new Suspiciousness.Fraudar(prior = v => if (v % 3 == 0) 2.0 else 0.0)
    (1L to 10L).foreach { seed =>
      val rng = new scala.util.Random(seed + 3000)
      val spade = loadedSpade(metric, randomTxs(20, 60, seed))
      (0 until 15).foreach { _ =>
        val a = rng.nextInt(24); var b = rng.nextInt(24)
        while (b == a) b = rng.nextInt(24)
        spade.insertEdge(Tx(a, b, 1.0))
      }
      assertMatchesStatic(spade, s"prior seed $seed", exact = false)
    }
  }

  test("stats report a window no larger than the sequence") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(50, 200, 9))
    val st = spade.insertEdge(Tx(3, 17, 2.0))
    assert(st.emitted <= spade.order.length)
    assert(st.scanFrom >= spade.order.start && st.scanTo <= spade.order.end)
    assert(st.recovered >= 1) // at least one endpoint re-evaluated
  }

  test("heavy edge into the dense region triggers a real reorder") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    val before = spade.detect().density
    spade.insertEdge(Tx(3, 4, 10.0)) // strengthen the {u4, u5} community
    val after = spade.detect().density
    assert(after > before)
    assert(spade.detect().memberSet == Set(3, 4))
    assertMatchesStatic(spade, "heavy edge")
  }
}
