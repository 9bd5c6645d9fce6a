package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The merge kernel moves white runs a block at a time (256 entries of the
  * order). The graphs here are large enough for a window to span many
  * blocks, and the updates plant what must keep a block on the per-entry
  * path: black entries (batch endpoints inside the window), gray entries
  * (neighbours of a vertex that jumps), weights tied with the heap's min key
  * (DG), holes (deletion hoists endpoints ahead of their slots), and blocks
  * that a merge rewrote with no `detect` before the next merge.
  */
class BlockMoveSpec extends AnyFunSuite {
  import TestUtil._

  /** The exact oracle without `detect`, which would refresh the block
    * index: same sequence and weights as a static re-peel, and the order's
    * own invariants.
    */
  private def assertSameAsStatic(spade: Spade, clue: String): Unit = {
    spade.order.checkInvariants()
    val fresh = StaticPeeling.peel(spade.graph)
    val got = spade.order
    assert(got.length == fresh.length, s"$clue: length ${got.length} vs ${fresh.length}")
    var i = 0
    while (i < got.length) {
      val gv = got.vertexAt(got.start + i)
      val fv = fresh.vertexAt(fresh.start + i)
      val gw = got.weightAt(got.start + i)
      val fw = fresh.weightAt(fresh.start + i)
      if (gv != fv || math.abs(gw - fw) >= 1e-7)
        fail(s"$clue: step $i of ${got.length}: incremental u$gv ($gw), static u$fv ($fw)")
      i += 1
    }
  }

  /** The vertices of the order, head first. */
  private def vertices(spade: Spade): IndexedSeq[Int] = spade.order.toVertexSeq

  test("a far jump over a gray-free stretch moves at least 80% of its window by blocks") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(8000, 24000, 11))
    val seq = vertices(spade)
    // An isolated vertex sits at the head; tied to the tail vertex by a
    // heavy edge, it moves past every other entry, and its only neighbour
    // is at the end of the window.
    val u = seq.find(spade.graph.degree(_) == 0).get
    val st = spade.insertEdge(Tx(u, seq.last, 500.0))
    assert(st.emitted > 20 * 256, s"window ${st.emitted}")
    assert(spade.lastBlockMoved >= 0.8 * st.emitted,
      s"moved ${spade.lastBlockMoved} of ${st.emitted} entries by blocks")
    assertSameAsStatic(spade, "far jump")
    assertMatchesStatic(spade, "far jump")
  }

  test("a merge right after a batch merge, with no detect between, reads the maxima of the blocks it rewrote") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(3000, 9000, 5))
    val o = spade.order
    val tail = o.vertexAt(o.end - 1)
    val n0 = spade.graph.numVertices
    // 600 new vertices, each tied to the tail by an edge of weight `k`,
    // land as one run of weight `k` past the middle. DW weights here are
    // multiples of 1/4, so `k` ties with none of them.
    val k = o.weightAt(o.start + o.length * 3 / 5) + 0.125
    spade.insertBatchEdges((0 until 600).map(i => Tx(n0 + i, tail, k)))
    assertSameAsStatic(spade, "the run")
    // The blocks of the run held only weights below `k` before: a vertex of
    // weight just under `k` must stop in front of the run, not jump it.
    spade.insertEdge(Tx(n0 + 600, tail, k - 0.0625))
    assertSameAsStatic(spade, "in front of the run")
    assertMatchesStatic(spade, "in front of the run")
  }

  test("black, gray, tied and dirty entries inside candidate blocks keep the order exact (DW, DG)") {
    Seq[Suspiciousness](Suspiciousness.DW, Suspiciousness.DG).foreach { m =>
      (1L to 3L).foreach { seed =>
        val rng = new scala.util.Random(seed * 17 + m.name.length)
        val n = 3000
        val live = scala.collection.mutable.ArrayBuffer(randomTxs(n, 3 * n, seed): _*)
        val spade = loadedSpade(m, live.toSeq)
        def amount(): Double = (1 + rng.nextInt(40)) * 0.25
        def at(lo: Double, hi: Double): Int = {
          val seq = vertices(spade)
          seq(((lo + rng.nextDouble() * (hi - lo)) * seq.length).toInt)
        }
        def edge(a: Int, b: Int, w: Double): Tx = if (a == b) Tx(a, (a + 1) % n, w) else Tx(a, b, w)
        var moved = 0L
        (0 until 30).foreach { step =>
          val clue = s"${m.name} seed $seed step $step"
          rng.nextInt(4) match {
            case 0 | 1 =>
              // A head vertex (its neighbours, spread over the window, turn
              // gray) jumps toward the tail. DG needs several edges for a far
              // jump; half of the batches also insert edges between
              // mid-order vertices, which are black inside the window.
              val u = at(0.0, 0.1)
              val jump = Seq.fill(if (m.name == "DG") 4 + rng.nextInt(12) else 1)(edge(u, at(0.8, 1.0), 40.0))
              val mid = if (rng.nextBoolean()) Seq.fill(1 + rng.nextInt(4))(edge(at(0.3, 0.7), at(0.3, 0.7), amount()))
                        else Nil
              val batch = rng.shuffle(jump ++ mid)
              spade.insertBatchEdges(batch)
              live ++= batch
            case 2 =>
              val t = edge(at(0.0, 1.0), at(0.0, 1.0), amount())
              spade.insertEdge(t)
              live += t
            case _ =>
              // Deleting an edge of a tail vertex hoists both endpoints over
              // a long window, leaving holes at their slots.
              val tail = vertices(spade).takeRight(200).toSet
              val i = live.indexWhere(t => tail(t.src) || tail(t.dst), rng.nextInt(live.length)) match {
                case -1 => rng.nextInt(live.length)
                case j => j
              }
              val t = live.remove(i)
              assert(spade.deleteEdge(t.src, t.dst).isDefined, clue)
          }
          moved += spade.lastBlockMoved
          // Inserts run no detect, so the next merge meets the blocks this
          // one rewrote still dirty; every 5th step checks `detect` too.
          assertSameAsStatic(spade, clue)
          if (step % 5 == 4) assertMatchesStatic(spade, clue)
        }
        assert(moved > 0, s"${m.name} seed $seed: no block moved")
      }
    }
  }

  test("FD: a hoisted vertex whose recovered key rounds above its stored weight keeps its slot a hole") {
    // FD's weights are not dyadic, so the key a deletion recovers for a
    // hoisted endpoint can exceed the Δ stored at its slot by an ulp. With
    // this stream (skewed graph, random inserts and deletes), the block of
    // one such slot holds nothing else at or above the heap's min key at
    // op 206; only its hole stamp keeps it from moving whole.
    val rng = new scala.util.Random(10127)
    val n = 300 + rng.nextInt(1500)
    val txs = skewedTxs(n * 3 / 4, n / 4, (1 + rng.nextInt(12)) * n, 10)
    val spade = loadedSpade(Suspiciousness.FD, txs)
    val live = scala.collection.mutable.ArrayBuffer(txs: _*)
    (0 until 240).foreach { op =>
      if (rng.nextInt(2) == 0) {
        val a = rng.nextInt(n); var b = rng.nextInt(n)
        while (b == a) b = rng.nextInt(n)
        val t = Tx(a, b, (1 + rng.nextInt(200)) * 0.25)
        spade.insertEdge(t)
        live += t
      } else {
        val t = live.remove(rng.nextInt(live.length))
        assert(spade.deleteEdge(t.src, t.dst).isDefined, s"op $op")
      }
      spade.order.checkInvariants()
    }
    assertValidGreedy(spade, "FD mix")
  }

  test("block moves keep FD's order a valid greedy peeling") {
    (1L to 2L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val n = 700
      val spade = loadedSpade(Suspiciousness.FD, randomTxs(n, 3 * n, seed))
      (0 until 12).foreach { step =>
        val seq = vertices(spade)
        val u = seq(rng.nextInt(seq.length / 10))
        val ts = Seq.fill(3 + rng.nextInt(6)) {
          val v = seq(seq.length - 1 - rng.nextInt(seq.length / 5))
          if (v == u) Tx(u, (u + 1) % n, 1.0) else Tx(u, v, 1.0)
        }
        spade.insertBatchEdges(ts)
        if (step % 3 == 2) assert(spade.deleteEdge(ts.head.src, ts.head.dst).isDefined)
        spade.order.checkInvariants()
        assertValidGreedy(spade, s"FD seed $seed step $step")
      }
    }
  }
}
