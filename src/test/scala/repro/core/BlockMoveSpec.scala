package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The merge kernel steps over whole blocks of the order (up to 256
  * entries). The graphs here are large enough for a window to span many
  * blocks, and the updates plant what must keep a block on the per-entry
  * path: black entries (batch endpoints inside the window), gray entries
  * (neighbours of a vertex that jumps), weights tied with the heap's min key
  * (DG), hoisted entries (deletion hoists endpoints ahead of their slots),
  * and blocks that a merge rewrote with no `detect` before the next merge.
  */
class BlockMoveSpec extends AnyFunSuite {
  import TestUtil._

  /** The exact oracle without `detect`: same sequence and weights as a
    * static re-peel, and the order's own invariants.
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

  test("a far jump over a gray-free stretch steps over at least 80% of its window") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(8000, 24000, 11))
    val seq = vertices(spade)
    // An isolated vertex sits at the head; tied to the tail vertex by a
    // heavy edge, it moves past every other entry, and its only neighbour
    // is at the end of the window.
    val u = seq.find(spade.graph.degree(_) == 0).get
    val st = spade.insertEdge(Tx(u, seq.last, 500.0))
    assert(st.emitted > 20 * 256, s"window ${st.emitted}")
    assert(spade.kernel.lastSteppedOver >= 0.8 * st.emitted,
      s"stepped over ${spade.kernel.lastSteppedOver} of ${st.emitted} entries")
    // The whites of the blocks it rewrites take no mark test.
    assert(spade.kernel.lastMarkReads <= spade.kernel.lastStamped,
      s"${spade.kernel.lastMarkReads} mark reads, ${spade.kernel.lastStamped} stamped slots")
    assertSameAsStatic(spade, "far jump")
    assertMatchesStatic(spade, "far jump")
  }

  test("a far DW jump writes the entries of at most 3 blocks") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(8000, 24000, 11))
    val seq = vertices(spade)
    // The jump of the test above: the block it leaves and the block it
    // lands in are rewritten, every block between is stepped over.
    val u = seq.find(spade.graph.degree(_) == 0).get
    val st = spade.insertEdge(Tx(u, seq.last, 500.0))
    assert(st.emitted > 20 * 256, s"window ${st.emitted}")
    assert(spade.kernel.lastWritten <= 3 * 256, s"wrote ${spade.kernel.lastWritten} entries for a window of ${st.emitted}")
    assertSameAsStatic(spade, "far jump")
  }

  /** `n` disjoint DW edges `(2i, 2i + 1)` of amount `i + 1`. Their static
    * order is vertex `p` at position `p`: `2i` with Δ `i + 1`, then `2i + 1`
    * with Δ 0, in blocks of 256 positions.
    */
  private def pairs(n: Int): Seq[Tx] = (0 until n).map(i => Tx(2 * i, 2 * i + 1, i + 1.0))

  /** The stamp counters of the last merge: every mark read is of a stamped slot. */
  private def assertFewMarkReads(spade: Spade, atMost: Int, clue: String): Unit = {
    assert(spade.kernel.lastMarkReads <= spade.kernel.lastStamped,
      s"$clue: ${spade.kernel.lastMarkReads} mark reads, ${spade.kernel.lastStamped} stamped slots")
    assert(spade.kernel.lastMarkReads <= atMost, s"$clue: ${spade.kernel.lastMarkReads} mark reads")
  }

  test("a gray neighbour deep inside a block that the scan enters at slot 0 takes the mark tests") {
    // Vertex 100 is tied to vertex 700 (block 2, slot 188) by a light edge.
    // A heavy edge to the tail makes 100 jump to the end: 700 turns gray,
    // ahead of the frontier. Block 2 also holds the pair 600/601, black in
    // the same batch, so it is entered from slot 0 whatever 700's stamp
    // says; only the slot stamp sends 700, and then 701, to the heap.
    val spade = loadedSpade(Suspiciousness.DW, pairs(600) :+ Tx(100, 700, 0.25))
    assertSameAsStatic(spade, "loaded")
    spade.insertBatchEdges(Seq(Tx(100, 1199, 1000.0), Tx(600, 601, 0.5)))
    assertFewMarkReads(spade, 8, "gray in block 2")
    assertSameAsStatic(spade, "gray in block 2")
    assertMatchesStatic(spade, "gray in block 2")
  }

  test("two windows of one insertion in the same block, after close compacted it") {
    // Window 1: the pair 100/101 rises to 301.5 and pops at position 602
    // (block 2, slot 90), so the window closes there and block 2 keeps only
    // its unread slots 90–255, moved to its front. Window 2 opens at 700
    // (old slot 188) and reads the black pair 720/721 at slots 118/119;
    // their stamps were set at slots 208/209 before the move.
    val spade = loadedSpade(Suspiciousness.DW, pairs(600))
    spade.insertBatchEdges(Seq(Tx(100, 101, 250.5), Tx(700, 1199, 1000.0), Tx(720, 721, 0.5)))
    assertSameAsStatic(spade, "second window")
    assert(spade.kernel.lastStamped >= 256, s"${spade.kernel.lastStamped} stamped slots: block 2 was not restamped")
    assert(spade.kernel.lastMarkReads <= spade.kernel.lastStamped)
    assertMatchesStatic(spade, "second window")
    // And a second round on the order the first one left.
    spade.insertBatchEdges(Seq(Tx(40, 41, 250.5), Tx(640, 1198, 1000.0), Tx(660, 661, 0.5)))
    assertSameAsStatic(spade, "second round")
    assertMatchesStatic(spade, "second round")
  }

  test("an insertion window that starts and ends deep in one block writes only its own entries") {
    // The pair 150/151 sits at slots 150/151 of block 0 and stays there
    // with Δ 76.5 (the next pair has 77). The window writes its first block
    // in place, so the 150 entries before it are not copied out.
    val spade = loadedSpade(Suspiciousness.DW, pairs(600))
    val st = spade.insertEdge(Tx(150, 151, 0.5))
    assert(st.scanFrom == 150 && st.emitted <= 4, s"$st")
    assert(spade.kernel.lastWritten <= st.emitted, s"wrote ${spade.kernel.lastWritten} entries for a window of ${st.emitted}")
    assertSameAsStatic(spade, "in place")
  }

  test("updates across the wrap of the kernel's epoch counter match the static peel") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(1500, 4500, 21))
    val rng = new scala.util.Random(21)
    val live = scala.collection.mutable.ArrayBuffer.empty[Tx]
    def edge(): Tx = {
      val a = rng.nextInt(1500); var b = rng.nextInt(1500)
      while (b == a) b = rng.nextInt(1500)
      Tx(a, b, (1 + rng.nextInt(40)) * 0.25)
    }
    // The updates below run at epochs -2 and -1; the third wraps to 0.
    spade.kernel.setEpoch(-3)
    (0 until 8).foreach { step =>
      step % 4 match {
        case 0 => val t = edge(); spade.insertEdge(t); live += t
        case 1 => val ts = Seq.fill(5)(edge()); spade.insertBatchEdges(ts); live ++= ts
        case 2 =>
          val t = live.remove(rng.nextInt(live.length))
          assert(spade.deleteEdge(t.src, t.dst).isDefined, s"step $step")
        case _ => val t = edge(); spade.insertGrouped(t); spade.flushPending(); live += t
      }
      spade.order.checkInvariants()
      assertMatchesStatic(spade, s"step $step")
    }
  }

  test("a delete whose hoisted vertices share blocks with whites reads only their stamped slots") {
    // 300 (block 0) and 760 (block 2, slot 248) are tied by a light edge.
    // Deleting it hoists both to the head; 300 pops early, overtaking 301,
    // and every other entry of their blocks is a white.
    val spade = loadedSpade(Suspiciousness.DW, pairs(600) :+ Tx(300, 760, 0.5))
    assert(spade.deleteEdge(300, 760).isDefined)
    assertFewMarkReads(spade, 8, "delete")
    assertSameAsStatic(spade, "delete")
    assertMatchesStatic(spade, "delete")
    // Tie them again and delete once more, from the order the delete left.
    spade.insertEdge(Tx(300, 760, 0.5))
    assertSameAsStatic(spade, "re-insert")
    assert(spade.deleteEdge(760, 300).isEmpty)
    assert(spade.deleteEdge(300, 760).isDefined)
    assertSameAsStatic(spade, "second delete")
    assertMatchesStatic(spade, "second delete")
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
              // a long window, ahead of their old entries.
              val tail = vertices(spade).takeRight(200).toSet
              val i = live.indexWhere(t => tail(t.src) || tail(t.dst), rng.nextInt(live.length)) match {
                case -1 => rng.nextInt(live.length)
                case j => j
              }
              val t = live.remove(i)
              assert(spade.deleteEdge(t.src, t.dst).isDefined, clue)
          }
          moved += spade.kernel.lastSteppedOver
          // Inserts run no detect, so the next merge meets the blocks this
          // one rewrote still dirty; every 5th step checks `detect` too.
          assertSameAsStatic(spade, clue)
          if (step % 5 == 4) assertMatchesStatic(spade, clue)
        }
        assert(moved > 0, s"${m.name} seed $seed: no block stepped over")
      }
    }
  }

  test("FD: a hoisted vertex whose recovered key rounds above its stored weight keeps its slot a hole") {
    // FD's weights are not dyadic, so the key a deletion recovers for a
    // hoisted endpoint can exceed the Δ stored at its slot by an ulp. With
    // this stream (skewed graph, random inserts and deletes), the block of
    // one such slot holds nothing else at or above the heap's min key at
    // op 206; only its stamp keeps it from being stepped over.
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
