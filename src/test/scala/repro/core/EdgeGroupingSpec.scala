package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** §4.3 — benign/urgent edge classification and grouped reordering. */
class EdgeGroupingSpec extends AnyFunSuite {
  import TestUtil._

  /** A graph with one clear dense community {8,9,10} (density 4) and a
    * benign fringe of weight-1 pendant edges.
    */
  private def fringeAndCore(policy: FlushPolicy = FlushPolicy.Grouped,
                            metric: Suspiciousness = Suspiciousness.DW): Spade = {
    val core = Seq(Tx(8, 9, 4.0), Tx(9, 10, 4.0), Tx(10, 8, 4.0))
    val fringe = (0 until 8).map(i => Tx(i, (i + 1) % 8, 0.5))
    loadedSpade(metric, fringe ++ core, policy)
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

  test("benign edges enter the graph; the order is unchanged until a flush") {
    val spade = fringeAndCore()
    val before = spade.order.toVertexSeq
    val r1 = spade.insertGrouped(Tx(0, 2, 0.1))
    val r2 = spade.insertGrouped(Tx(1, 3, 0.1))
    assert(r1.isEmpty && r2.isEmpty)
    assert(spade.pendingCount == 2)
    assert(spade.order.toVertexSeq == before)
    assert(spade.graph.numEdges == 13) // in the graph, not yet in the order
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
    // A buffered edge is already in the graph, so the delete empties the buffer by
    // reordering it first; the other buffered edge (4, 6) stays in the graph, and the
    // deleted one then leaves it like any other edge.
    val spade = fringeAndCore()
    // w0(0) = 1.0: a 2.9 edge at vertex 0 is benign, unless 0.5 more is pending
    val probe = Tx(0, 3, 2.9)
    assert(spade.isBenign(probe))
    assert(spade.insertGrouped(Tx(0, 2, 0.5)).isEmpty)
    assert(spade.insertGrouped(Tx(4, 6, 0.1)).isEmpty)
    assert(!spade.isBenign(probe))
    assert(spade.deleteEdge(0, 2).isDefined)
    assert(spade.pendingCount == 0 && spade.graph.numEdges == 12)
    assert(spade.isBenign(probe), "the deleted edge's weight still counts")
    assertMatchesStatic(spade, "after deleting a pending edge")
    assert(spade.deleteEdge(0, 2).isEmpty) // nothing left to delete
  }

  test("insertGrouped evaluates esusp once per edge, its flush included") {
    final class Counting(m: Suspiciousness) extends Suspiciousness {
      var calls = 0
      def name: String = m.name
      def vsusp(u: Int, g: DynGraph): Double = m.vsusp(u, g)
      def esusp(tx: Tx, g: DynGraph): Double = { calls += 1; m.esusp(tx, g) }
    }
    // two benign edges, an urgent one at the core, a new vertex, then an explicit flush
    val edges = Seq(Tx(0, 2, 0.1), Tx(1, 3, 0.1), Tx(0, 8, 2.0), Tx(4, 12, 0.1))
    Suspiciousness.paperMetrics.foreach { m =>
      val counting = new Counting(m)
      val spade = fringeAndCore(metric = counting)
      counting.calls = 0
      val flushes = edges.count(t => spade.insertGrouped(t).isDefined)
      spade.flushPending()
      if (m eq Suspiciousness.DW) assert(flushes == 1, "the core edge did not flush")
      assert(counting.calls == edges.length, s"${m.name}: ${counting.calls} esusp calls for ${edges.length} edges")
      assertMatchesStatic(spade, m.name, exact = m ne Suspiciousness.FD)
    }
  }

  test("flushPending on an empty buffer is a no-op") {
    val spade = fringeAndCore()
    assert(spade.flushPending() == ReorderStats.zero)
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
    // each individually small, but pending edges count in w0 until
    // w0 + c crosses the community density
    var flushed = false
    var i = 0
    while (!flushed && i < 20) {
      flushed = spade.insertGrouped(Tx(0, 2, 0.5)).isDefined
      i += 1
    }
    assert(flushed, "accumulated benign edges never turned urgent")
    assert(i <= 8, s"took $i edges — pending edges not counted in w0")
  }

  test("grouped replay ends in the same graph and community as plain batch") {
    // A sparse fringe around a dense block, so that updates among the
    // fringe are often benign; ids 52-55 are new.
    val block = for (a <- 40 until 52; b <- 40 until 52 if a < b) yield Tx(a, b, 6.0)
    val base = randomTxs(40, 40, 8) ++ block
    val rng = new scala.util.Random(8)
    val updates = (0 until 48).map { i =>
      val a = rng.nextInt(56); var b = rng.nextInt(56)
      while (b == a) b = rng.nextInt(56)
      Tx(a, b, (1 + rng.nextInt(8)) * 0.25, ts = i.toDouble)
    }
    Suspiciousness.paperMetrics.foreach { metric =>
      val grouped = loadedSpade(metric, base)
      val plain = loadedSpade(metric, base)
      val batch = scala.collection.mutable.ArrayBuffer.empty[Tx]
      var reordered = -1 // updates up to this index are in grouped's order
      var (pendingDeletes, reorderedDeletes) = (0, 0)
      updates.zipWithIndex.foreach { case (t, i) =>
        if (grouped.insertGrouped(t).isDefined) reordered = i
        batch += t
        if (i % 4 == 3) {
          // every other delete takes the newest update, the rest one from
          // before the last delete, which that delete reordered
          val j = if (i % 8 == 3) i else i - 5
          if (j > reordered) pendingDeletes += 1 else reorderedDeletes += 1
          val victim = updates(j)
          plain.insertBatchEdges(batch.toSeq)
          batch.clear()
          val clue = s"${metric.name}: delete of update $j after update $i"
          assert(grouped.deleteEdge(victim.src, victim.dst).isDefined, clue)
          assert(plain.deleteEdge(victim.src, victim.dst).isDefined, clue)
          reordered = i
        }
      }
      grouped.flushPending()
      plain.insertBatchEdges(batch.toSeq)
      val clue = s"${metric.name}: $pendingDeletes pending and $reorderedDeletes reordered deletes"
      assert(pendingDeletes > 0 && reorderedDeletes > 0, clue)
      assert(grouped.graph.numEdges == plain.graph.numEdges, clue)
      val exact = metric ne Suspiciousness.FD
      assertMatchesStatic(grouped, s"grouped, $clue", exact)
      assertMatchesStatic(plain, s"plain, $clue", exact)
      if (exact) assert(grouped.order.toVertexSeq == plain.order.toVertexSeq, clue)
      assert(math.abs(grouped.detect().density - plain.detect().density) < 1e-9, clue)
    }
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
