package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** §4.2 / Algorithm 2 — peeling-sequence reordering in batch. */
class BatchInsertSpec extends AnyFunSuite {
  import TestUtil._

  test("a batch of one behaves exactly like insertEdge") {
    val a = loadedSpade(Suspiciousness.DW, paperEdges)
    val b = loadedSpade(Suspiciousness.DW, paperEdges)
    a.insertEdge(paperInsertion)
    b.insertBatchEdges(Seq(paperInsertion))
    assert(a.order.toVertexSeq == b.order.toVertexSeq)
    assert(a.order.toWeightSeq == b.order.toWeightSeq)
  }

  test("empty batch is a no-op") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    val before = spade.order.toVertexSeq
    val st = spade.insertBatchEdges(Nil)
    assert(st == ReorderStats.zero)
    assert(spade.order.toVertexSeq == before)
  }

  test("batch result equals one-by-one result (same final graph, same order)") {
    (1L to 15L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val base = randomTxs(30, 100, seed)
      val updates = (0 until 40).map { i =>
        val a = rng.nextInt(34); var b = rng.nextInt(34)
        while (b == a) b = rng.nextInt(34)
        Tx(a, b, (4 + rng.nextInt(60)) * 0.25, ts = 1000.0 + i)
      }
      val one = loadedSpade(Suspiciousness.DW, base)
      updates.foreach(one.insertEdge)
      val bat = loadedSpade(Suspiciousness.DW, base)
      bat.insertBatchEdges(updates)
      assert(one.order.toVertexSeq == bat.order.toVertexSeq, s"seed $seed")
      assert(math.abs(one.detect().density - bat.detect().density) < 1e-9, s"seed $seed")
    }
  }

  test("batch matches static re-peel for all three paper metrics") {
    Seq[Suspiciousness](Suspiciousness.DG, Suspiciousness.DW, Suspiciousness.FD).foreach { m =>
      (1L to 8L).foreach { seed =>
        val rng = new scala.util.Random(seed * 7)
        val spade = loadedSpade(m, randomTxs(30, 120, seed))
        (0 until 5).foreach { round =>
          val batch = (0 until 12).map { _ =>
            val a = rng.nextInt(36); var b = rng.nextInt(36)
            while (b == a) b = rng.nextInt(36)
            Tx(a, b, (4 + rng.nextInt(60)) * 0.25)
          }
          spade.insertBatchEdges(batch)
          assertMatchesStatic(spade, s"${m.name} seed $seed round $round", exact = m.name != "FD")
        }
      }
    }
  }

  test("batch with new vertices (a planted fraud block) matches static") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(20, 60, 4))
    // a dense bipartite block of brand-new accounts
    val block = for {
      c <- 20 until 24
      mch <- 24 until 27
    } yield Tx(c, mch, 30.0)
    spade.insertBatchEdges(block)
    assertMatchesStatic(spade, "fraud block")
    val community = spade.detect()
    assert((20 until 27).forall(community.memberSet.contains),
      s"planted block missing from ${community.memberSet}")
  }

  test("Example 4.2: opposing reorders cancel — batch touches less than singles") {
    // Build a graph where vertex 10 and 11 swap on the first insertion and
    // swap back on the next two; the batch should reorder less in total.
    val base = randomTxs(30, 150, 21)
    val updates = Seq(
      Tx(10, 11, 4.0),
      Tx(12, 10, 4.0),
      Tx(13, 11, 4.0),
    )
    val one = loadedSpade(Suspiciousness.DW, base)
    var singleWork = 0L
    updates.foreach(t => singleWork += one.insertEdge(t).edgesTouched)
    val bat = loadedSpade(Suspiciousness.DW, base)
    val batchWork = bat.insertBatchEdges(updates).edgesTouched
    assert(one.order.toVertexSeq == bat.order.toVertexSeq)
    assert(batchWork <= singleWork, s"batch $batchWork vs singles $singleWork")
  }

  test("batches across many rounds keep Σ Δ = f(V)") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(40, 150, 6))
    val rng = new scala.util.Random(99)
    (0 until 10).foreach { _ =>
      val batch = (0 until 8).map { _ =>
        val a = rng.nextInt(45); var b = rng.nextInt(45)
        while (b == a) b = rng.nextInt(45)
        Tx(a, b, (4 + rng.nextInt(8)) * 0.25)
      }
      spade.insertBatchEdges(batch)
      val sum = spade.order.toWeightSeq.sum
      assert(math.abs(sum - spade.graph.totalF) < 1e-6)
    }
  }

  test("large sparse batch leaves far-apart tail positions untouched") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(200, 800, 13))
    val o = spade.order
    val tailVertex = o.vertexAt(o.end - 1)
    val tailPos = o.posOf(tailVertex)
    // an edge between the two earliest-peeled vertices cannot move the
    // densest tail
    val v0 = o.vertexAt(o.start)
    val v1 = o.vertexAt(o.start + 1)
    spade.insertBatchEdges(Seq(Tx(v0, v1, 0.01)))
    assert(spade.order.posOf(tailVertex) == tailPos)
    assertMatchesStatic(spade, "sparse batch")
  }

  test("interleaved singles and batches stay consistent (greedy-validity check)") {
    val spade = loadedSpade(Suspiciousness.FD, randomTxs(25, 80, 17))
    val rng = new scala.util.Random(17)
    (0 until 6).foreach { i =>
      if (i % 2 == 0) {
        val a = rng.nextInt(28); var b = rng.nextInt(28)
        while (b == a) b = rng.nextInt(28)
        spade.insertEdge(Tx(a, b, 1.0))
      } else {
        val batch = (0 until 5).map { _ =>
          val a = rng.nextInt(28); var b = rng.nextInt(28)
          while (b == a) b = rng.nextInt(28)
          Tx(a, b, 1.0)
        }
        spade.insertBatchEdges(batch)
      }
      assertValidGreedy(spade, s"round $i")
    }
  }

  test("a malformed edge rejects the whole batch before any change") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    val order = spade.order.toVertexSeq
    val weights = spade.order.toWeightSeq
    Seq(
      Seq(Tx(0, 6, 1.0), Tx(2, 2, 1.0)),                    // self-loop after a new vertex
      Seq(Tx(0, 3, 1.0), Tx(1, 4, -1.0)),                   // DW amount <= 0
      Seq(Tx(0, 3, 1.0), Tx(-1, 4, 1.0)),                   // negative id
      Seq(Tx(0, 7, 1.0), Tx(1, 3, Double.PositiveInfinity)), // infinite weight
    ).foreach { batch =>
      intercept[IllegalArgumentException](spade.insertBatchEdges(batch))
      assert(spade.graph.numVertices == 5 && spade.graph.numEdges == 4, s"$batch")
      assert(spade.order.toVertexSeq == order && spade.order.toWeightSeq == weights, s"$batch")
    }
    spade.insertBatchEdges(Seq(paperInsertion))
    assertMatchesStatic(spade, "after rejected batches")
  }

  test("a malformed edge rejects the whole load before any change") {
    val spade = new Spade(Suspiciousness.DW)
    Seq(
      Seq(Tx(0, 1, 2.0), Tx(1, 2, 2.0), Tx(2, 2, 1.0), Tx(2, 3, 1.0)), // self-loop at index 2
      Seq(Tx(0, 1, 2.0), Tx(1, 2, 0.0)),                               // DW amount <= 0
      Seq(Tx(0, 1, 2.0), Tx(1, -2, 1.0)),                              // negative id
    ).foreach { load =>
      intercept[IllegalArgumentException](spade.loadGraph(load.iterator))
      assert(spade.graph.numVertices == 0 && spade.graph.numEdges == 0, s"$load")
      assert(spade.order.length == 0, s"$load")
    }
    spade.loadGraph(paperEdges.iterator)
    val fresh = loadedSpade(Suspiciousness.DW, paperEdges)
    assert(spade.graph.numVertices == fresh.graph.numVertices && spade.graph.numEdges == fresh.graph.numEdges)
    assert(spade.order.toVertexSeq == fresh.order.toVertexSeq)
    assert(spade.order.toWeightSeq == fresh.order.toWeightSeq)
    assertMatchesStatic(spade, "after rejected loads")
  }
}
