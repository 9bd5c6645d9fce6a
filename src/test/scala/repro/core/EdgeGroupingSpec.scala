package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** §4.3 — benign/urgent edge classification and grouped reordering. */
class EdgeGroupingSpec extends AnyFunSuite {
  import TestUtil._

  /** A graph with one clear dense community {8,9,10} (density 4) and a
    * benign fringe of weight-1 pendant edges.
    */
  private def fringeAndCore(policy: FlushPolicy = FlushPolicy.Grouped()): Spade = {
    val core = Seq(Tx(8, 9, 4.0), Tx(9, 10, 4.0), Tx(10, 8, 4.0))
    val fringe = (0 until 8).map(i => Tx(i, (i + 1) % 8, 0.5))
    loadedSpade(Suspiciousness.DW, fringe ++ core, policy)
  }

  test("a tiny edge between fringe vertices is benign") {
    val spade = fringeAndCore()
    assert(spade.detect().density == 4.0)
    assert(spade.isBenign(Tx(0, 3, 0.2)))
  }

  test("an edge whose endpoint weight reaches g(S^P) is urgent") {
    val spade = fringeAndCore()
    // w0(0) = 1.0 (two fringe edges of 0.5); 1.0 + 3.5 >= 4.0 -> urgent
    assert(!spade.isBenign(Tx(0, 3, 3.5)))
  }

  test("an edge touching the dense core is urgent") {
    val spade = fringeAndCore()
    assert(!spade.isBenign(Tx(0, 8, 0.5))) // w0(8) = 8.0 >= 4.0 already
  }

  test("Lemma 4.3: a benign edge's endpoints are not in the optimum S*") {
    (1L to 20L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val txs = randomTxs(10, 25, seed)
      val spade = loadedSpade(Suspiciousness.DW, txs)
      spade.detect()
      val a = rng.nextInt(10); val b = (a + 1 + rng.nextInt(9)) % 10
      val e = Tx(a, b, 0.05)
      if (a != b && spade.isBenign(e)) {
        spade.insertEdge(e)
        val (_, sStar) = StaticPeeling.bruteForceOptimum(spade.graph)
        assert(!sStar.contains(a) && !sStar.contains(b),
          s"seed $seed: benign endpoints in S* = $sStar")
      }
    }
  }

  test("Lemma 4.4: a benign edge never increases the detected density") {
    (1L to 20L).foreach { seed =>
      val rng = new scala.util.Random(seed * 13)
      val spade = loadedSpade(Suspiciousness.DW, randomTxs(15, 40, seed))
      val g0 = spade.detect().density
      val a = rng.nextInt(15); val b = (a + 1 + rng.nextInt(14)) % 15
      val e = Tx(a, b, 0.05)
      if (a != b && spade.isBenign(e)) {
        spade.insertEdge(e)
        val c = spade.detect()
        assert(c.density <= g0 + 1e-9 ||
               (!c.memberSet.contains(a) && !c.memberSet.contains(b)),
          s"seed $seed: benign edge raised density via its endpoints")
      }
    }
  }

  test("benign edges buffer; the state is unchanged until a flush") {
    val spade = fringeAndCore()
    val before = spade.order.toVertexSeq
    val r1 = spade.insertGrouped(Tx(0, 2, 0.1))
    val r2 = spade.insertGrouped(Tx(1, 3, 0.1))
    assert(r1.isEmpty && r2.isEmpty)
    assert(spade.pendingCount == 2)
    assert(spade.order.toVertexSeq == before)
    assert(spade.graph.numEdges == 11) // still unflushed
  }

  test("an urgent edge flushes the whole buffer at once") {
    val spade = fringeAndCore()
    spade.insertGrouped(Tx(0, 2, 0.1))
    spade.insertGrouped(Tx(1, 3, 0.1))
    val r = spade.insertGrouped(Tx(0, 8, 2.0)) // touches the core -> urgent
    assert(r.isDefined)
    assert(spade.pendingCount == 0)
    assert(spade.graph.numEdges == 14)
    assertMatchesStatic(spade, "after urgent flush")
  }

  test("flushPending drains the buffer explicitly") {
    val spade = fringeAndCore()
    spade.insertGrouped(Tx(0, 2, 0.1))
    spade.insertGrouped(Tx(4, 6, 0.1))
    val st = spade.flushPending()
    assert(st.emitted > 0 && spade.pendingCount == 0)
    assertMatchesStatic(spade, "explicit flush")
  }

  test("deleting a still-buffered edge drops it from the buffer, not the graph") {
    val spade = fringeAndCore()
    val before = spade.order.toVertexSeq
    // w0(0) = 1.0: a 2.9 edge at vertex 0 is benign, unless 0.5 more is pending
    val probe = Tx(0, 3, 2.9)
    assert(spade.isBenign(probe))
    assert(spade.insertGrouped(Tx(0, 2, 0.5)).isEmpty)
    assert(spade.insertGrouped(Tx(4, 6, 0.1)).isEmpty)
    assert(!spade.isBenign(probe))
    assert(spade.deleteEdge(0, 2) == Some(ReorderStats.zero))
    assert(spade.pendingCount == 1)
    assert(spade.isBenign(probe), "the deleted edge's pending weight was not taken back")
    assert(spade.order.toVertexSeq == before)
    assert(spade.deleteEdge(0, 2).isEmpty) // nothing left to delete
    spade.flushPending()
    assert(spade.pendingCount == 0 && spade.graph.numEdges == 12)
    assertMatchesStatic(spade, "flush after deleting a buffered edge")
  }

  test("flushPending on an empty buffer is a no-op") {
    val spade = fringeAndCore()
    assert(spade.flushPending() == ReorderStats.zero)
  }

  test("the flush cap forces a flush even without an urgent edge") {
    val core = Seq(Tx(8, 9, 4.0), Tx(9, 10, 4.0), Tx(10, 8, 4.0))
    val fringe = (0 until 8).map(i => Tx(i, (i + 1) % 8, 0.5))
    val spade = new Spade(Suspiciousness.DW, FlushPolicy.Grouped(cap = 3))
    spade.loadGraph(fringe ++ core)
    assert(spade.insertGrouped(Tx(0, 2, 0.01)).isEmpty)
    assert(spade.insertGrouped(Tx(1, 3, 0.01)).isEmpty)
    assert(spade.insertGrouped(Tx(2, 4, 0.01)).isDefined) // cap reached
    assert(spade.pendingCount == 0)
  }

  test("Every(3) flushes on the third edge, benign or urgent alike") {
    val spade = fringeAndCore(FlushPolicy.Every(3))
    // three benign edges: the third flushes
    Seq(Tx(0, 2, 0.01), Tx(1, 3, 0.01)).foreach(t => assert(spade.isBenign(t) && spade.insertGrouped(t).isEmpty))
    assert(spade.insertGrouped(Tx(2, 4, 0.01)).isDefined)
    assert(spade.pendingCount == 0)
    // an urgent edge first does not flush early
    val urgent = Tx(0, 8, 2.0)
    assert(!spade.isBenign(urgent))
    assert(spade.insertGrouped(urgent).isEmpty)
    assert(spade.insertGrouped(Tx(4, 6, 0.01)).isEmpty)
    assert(spade.pendingCount == 2)
    assert(spade.insertGrouped(Tx(5, 7, 0.01)).isDefined)
    assert(spade.pendingCount == 0 && spade.graph.numEdges == 17)
    assertMatchesStatic(spade, "after Every(3) flushes")
  }

  test("stacked benign edges on one vertex eventually become urgent") {
    val spade = fringeAndCore()
    // each individually small, but the pending accounting accumulates until
    // w0 + c crosses the community density
    var flushed = false
    var i = 0
    while (!flushed && i < 20) {
      flushed = spade.insertGrouped(Tx(0, 2, 0.5)).isDefined
      i += 1
    }
    assert(flushed, "accumulated benign edges never turned urgent")
    assert(i <= 8, s"took $i edges — pending accounting not applied")
  }

  test("grouped replay ends in the same graph and community as plain batch") {
    val base = randomTxs(20, 60, 8)
    val rng = new scala.util.Random(8)
    val updates = (0 until 30).map { i =>
      val a = rng.nextInt(24); var b = rng.nextInt(24)
      while (b == a) b = rng.nextInt(24)
      Tx(a, b, (1 + rng.nextInt(50)) * 0.25, ts = i.toDouble)
    }
    val grouped = loadedSpade(Suspiciousness.DW, base)
    updates.foreach(grouped.insertGrouped)
    grouped.flushPending()
    val plain = loadedSpade(Suspiciousness.DW, base)
    plain.insertBatchEdges(updates)
    assert(grouped.graph.numEdges == plain.graph.numEdges)
    assert(grouped.order.toVertexSeq == plain.order.toVertexSeq)
    assert(math.abs(grouped.detect().density - plain.detect().density) < 1e-9)
  }

  test("urgent edges from a fresh fraud burst trigger immediate flushes") {
    val spade = fringeAndCore()
    // fraudulent block hammering one new merchant
    var flushes = 0
    (0 until 10).foreach { i =>
      if (spade.insertGrouped(Tx(20 + i % 3, 25, 2.5, fraudId = 1)).isDefined) flushes += 1
    }
    assert(flushes >= 1, "burst never triggered a flush")
    assert(spade.detect().memberSet.contains(25))
  }

  test("a malformed edge is rejected before it is buffered") {
    val spade = fringeAndCore()
    spade.insertGrouped(Tx(0, 2, 0.1))
    intercept[IllegalArgumentException](spade.insertGrouped(Tx(3, 3, 0.1)))
    intercept[IllegalArgumentException](spade.insertGrouped(Tx(3, 4, 0.0)))
    assert(spade.pendingCount == 1)
    spade.insertGrouped(Tx(4, 6, 0.1))
    spade.flushPending()
    assert(spade.pendingCount == 0 && spade.graph.numEdges == 13)
    assertMatchesStatic(spade, "grouped after rejects")
  }
}
