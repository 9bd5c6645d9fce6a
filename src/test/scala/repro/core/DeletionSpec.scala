package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Appendix C.1 — peeling-sequence reordering with edge deletion. */
class DeletionSpec extends AnyFunSuite {
  import TestUtil._

  test("Example C.1: deleting (u1, u5) restores O = [u1, u3, u2, u4, u5]") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    spade.insertEdge(paperInsertion)
    assert(spade.order.toVertexSeq == Seq(2, 1, 0, 3, 4))
    val st = spade.deleteEdge(0, 4)
    assert(st.isDefined)
    assert(spade.order.toVertexSeq == Seq(0, 2, 1, 3, 4))
    assertMatchesStatic(spade, "example C.1")
  }

  test("deleting a missing edge returns None and changes nothing") {
    val spade = loadedSpade(Suspiciousness.DW, paperEdges)
    val before = spade.order.toVertexSeq
    assert(spade.deleteEdge(0, 3).isEmpty)
    assert(spade.deleteEdge(1, 0).isEmpty) // reversed direction of (0,1)
    assert(spade.order.toVertexSeq == before)
  }

  test("insert then delete is an exact round trip (random graphs)") {
    (1L to 15L).foreach { seed =>
      val txs = randomTxs(25, 100, seed)
      val spade = loadedSpade(Suspiciousness.DW, txs)
      val before = spade.order.toVertexSeq
      val beforeW = spade.order.toWeightSeq
      val rng = new scala.util.Random(seed)
      // pick an edge that does not already exist — deleteEdge(src, dst) on a
      // multigraph removes *an* occurrence, so a pre-existing parallel edge
      // would make the round trip ambiguous
      var a = rng.nextInt(25); var b = (a + 1 + rng.nextInt(24)) % 25
      while (a == b || txs.exists(t => t.src == a && t.dst == b)) {
        a = rng.nextInt(25); b = (a + 1 + rng.nextInt(24)) % 25
      }
      spade.insertEdge(Tx(a, b, 3.25))
      spade.deleteEdge(a, b)
      assert(spade.order.toVertexSeq == before, s"seed $seed")
      assert(spade.order.toWeightSeq.zip(beforeW).forall { case (x, y) => math.abs(x - y) < 1e-9 },
        s"seed $seed weights")
    }
  }

  test("deletion matches a static re-peel (random graphs, random victims)") {
    (1L to 15L).foreach { seed =>
      val txs = randomTxs(30, 120, seed)
      val spade = loadedSpade(Suspiciousness.DW, txs)
      val rng = new scala.util.Random(seed * 5)
      (0 until 10).foreach { i =>
        val victim = txs(rng.nextInt(txs.length))
        spade.deleteEdge(victim.src, victim.dst) // may be a repeat — fine
        assertMatchesStatic(spade, s"seed $seed deletion $i")
      }
    }
  }

  test("deleting the community's internal edge lowers the detected density") {
    val spade = loadedSpade(Suspiciousness.DW,
      Seq(Tx(0, 1, 5.0), Tx(1, 2, 5.0), Tx(2, 0, 5.0), Tx(3, 4, 0.5)))
    assert(math.abs(spade.detect().density - 5.0) < 1e-9)
    spade.deleteEdge(0, 1)
    val c = spade.detect()
    assert(c.density < 5.0)
    assertMatchesStatic(spade, "core deletion")
  }

  test("deleting one of two parallel edges keeps the other") {
    val spade = loadedSpade(Suspiciousness.DW, Seq(Tx(0, 1, 2.0), Tx(0, 1, 3.0), Tx(1, 2, 1.0)))
    spade.deleteEdge(0, 1)
    assert(spade.graph.numEdges == 2)
    assertMatchesStatic(spade, "parallel deletion")
  }

  test("interleaved insertions and deletions stay consistent (all metrics)") {
    Seq[Suspiciousness](Suspiciousness.DG, Suspiciousness.DW, Suspiciousness.FD).foreach { m =>
      val spade = loadedSpade(m, randomTxs(20, 70, 77))
      val rng = new scala.util.Random(77)
      val live = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      (0 until 20).foreach { i =>
        if (i % 3 != 2 || live.isEmpty) {
          val a = rng.nextInt(22); var b = rng.nextInt(22)
          while (b == a) b = rng.nextInt(22)
          spade.insertEdge(Tx(a, b, (4 + rng.nextInt(30)) * 0.25))
          live += ((a, b))
        } else {
          val (a, b) = live.remove(rng.nextInt(live.length))
          spade.deleteEdge(a, b)
        }
        assertMatchesStatic(spade, s"${m.name} op $i", exact = m.name != "FD")
      }
    }
  }

  test("stress: skewed graphs under random insert, batch and delete mixes, then drained") {
    Seq[Suspiciousness](Suspiciousness.DG, Suspiciousness.DW, Suspiciousness.FD).foreach { m =>
      (1L to 6L).foreach { seed =>
        val rng = new scala.util.Random(seed * 31 + m.name.length)
        val nc = 20 + rng.nextInt(120)
        val nm = 10 + rng.nextInt(50)
        val live = scala.collection.mutable.ArrayBuffer(skewedTxs(nc, nm, 2 * (nc + nm), seed): _*)
        val spade = loadedSpade(m, live.toSeq)
        def fresh(): Tx = skewedTxs(nc, nm, 1, rng.nextLong()).head
        // FD's greedy check is O(V² · deg): drain steps check it every 4th.
        def check(clue: String, i: Int = 0): Unit = {
          spade.order.checkInvariants()
          if (m.name != "FD") assertMatchesStatic(spade, clue)
          else if (i % 4 == 0) assertValidGreedy(spade, clue)
        }
        (0 until 60).foreach { step =>
          rng.nextInt(4) match {
            case 0 => val t = fresh(); spade.insertEdge(t); live += t
            case 1 => val ts = Seq.fill(1 + rng.nextInt(8))(fresh()); spade.insertBatchEdges(ts); live ++= ts
            case _ =>
              val t = live.remove(rng.nextInt(live.length))
              assert(spade.deleteEdge(t.src, t.dst).isDefined)
          }
          check(s"${m.name} seed $seed step $step")
        }
        rng.shuffle(live).zipWithIndex.foreach { case (t, i) =>
          assert(spade.deleteEdge(t.src, t.dst).isDefined)
          check(s"${m.name} seed $seed drain $i", i)
        }
        check(s"${m.name} seed $seed drained")
        assert(spade.graph.numEdges == 0)
        assert(spade.order.toWeightSeq.forall(_ == 0.0), s"${m.name} seed $seed: drained weights")
      }
    }
  }

  test("deleting a peripheral edge recovers a few vertices, not the suffix") {
    val txs = randomTxs(5000, 15000, 5)
    val spade = loadedSpade(Suspiciousness.DW, txs)
    val g = spade.graph
    val peripheral = txs.map(t => (t.src, t.dst)).distinct.sortBy { case (a, b) => g.degree(a) + g.degree(b) }.take(10)
    peripheral.foreach { case (a, b) =>
      val st = spade.deleteEdge(a, b).get
      assert(st.recovered * 20 < st.emitted, s"($a, $b): recovered ${st.recovered} of ${st.emitted}")
      assert(st.edgesTouched < spade.graph.numEdges / 10,
        s"($a, $b): touched ${st.edgesTouched} edges of ${spade.graph.numEdges}")
    }
    assertMatchesStatic(spade, "peripheral deletions")
  }
}
