package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The pruned `Detect` walk of `PeelOrder` against the full walks it
  * replaces (`TestUtil.fullDetect` / `fullDetectThreshold`): identical
  * argmax, density and β-suffix on arbitrary weight vectors, after window
  * rewrites and head reallocations, and on Spade's maintained order under
  * every update path. Also checks that the walk really stops early.
  */
class DetectSpec extends AnyFunSuite {
  import TestUtil._

  /** Weight vectors of several shapes; `kind` picks one. */
  private def weights(rng: scala.util.Random, n: Int, kind: Int): Array[Double] = kind match {
    case 0 => Array.fill(n)(rng.nextInt(4).toDouble)                     // heavy ties
    case 1 => Array.fill(n)(0.0)                                         // all zero
    case 2 => Array.fill(n)(rng.nextInt(40) * 0.25)                      // iid dyadic
    case 3 =>                                                            // peel-like: rising,
      val w = Array.tabulate(n)(i => (i * 8 / math.max(1, n)).toDouble)  // plus a heavy tail
      (0 until rng.nextInt(40).min(n)).foreach(i => w(n - 1 - i) = 20.0 + rng.nextInt(3))
      w
    case _ =>                                                            // rising with noise
      Array.tabulate(n)(i => i * 1e-3 + rng.nextDouble())
  }

  private def randomOrder(rng: scala.util.Random, n: Int, kind: Int): PeelOrder = {
    val vs = rng.shuffle((0 until n).toVector).toArray
    PeelOrder.fromArrays(vs, weights(rng, n, kind), n - 1)
  }

  test("empty and singleton orders") {
    val empty = PeelOrder.fromArrays(Array.empty, Array.empty, -1)
    assertDetectMatchesFull(empty, "empty")
    assert(empty.detect().size == 0 && empty.detect().density == 0.0)
    assert(empty.detectThreshold(0.6).size == 0)
    Seq(0.0, 3.5).foreach { w =>
      val one = PeelOrder.fromArrays(Array(7), Array(w), 7)
      assertDetectMatchesFull(one, s"singleton $w")
      assert(one.detect().members.sameElements(Array(7)))
    }
  }

  test("random orders with ties, zeros and block-straddling lengths") {
    val rng = new scala.util.Random(11)
    val sizes = Seq(2, 255, 256, 257, 511, 512, 513, 1024, 3000) ++ Seq.fill(40)(rng.nextInt(2500))
    for (n <- sizes; kind <- 0 to 4) {
      val o = randomOrder(rng, n, kind)
      assertDetectMatchesFull(o, s"n=$n kind=$kind")
    }
  }

  test("all-zero weights return the whole order after a full walk") {
    val o = PeelOrder.fromArrays((0 until 700).toArray, Array.fill(700)(0.0), 699)
    assert(o.detect().size == 700)
    assert(o.lastWalkLength == 700)
    assert(o.detectThreshold(0.6).size == 700)
  }

  test("window rewrites and head reallocations keep the walk exact") {
    val rng = new scala.util.Random(5)
    (0 to 4).foreach { kind =>
      val n = 600 + rng.nextInt(1500)
      val o = randomOrder(rng, n, kind)
      val heads = scala.collection.mutable.Set(o.headBlock)
      var next = n
      (1 to 60).foreach { round =>
        // a write-back window: reweight or swap entries in [a, b)
        val a = o.start + rng.nextInt(o.length)
        val b = math.min(o.end, a + 1 + rng.nextInt(400))
        var p = a
        while (p < b) {
          if (rng.nextBoolean()) o.set(p, o.vertexAt(p), weights(rng, 1, kind)(0) + rng.nextInt(3))
          else {
            val q = a + rng.nextInt(b - a)
            val (vp, wp, vq, wq) = (o.vertexAt(p), o.weightAt(p), o.vertexAt(q), o.weightAt(q))
            o.set(p, vq, wq); o.set(q, vp, wp)
          }
          p += 1
        }
        // head inserts fill the head block, then open new head blocks
        (0 until 40).foreach { _ => o.prepend(next, rng.nextInt(3).toDouble); next += 1 }
        heads += o.headBlock
        o.checkInvariants()
        assertDetectMatchesFull(o, s"kind=$kind round=$round")
      }
      assert(heads.size > 1, "the prepends should have opened new head blocks")
    }
  }

  test("rewrites and reallocations far from the tail move the answer there") {
    // a light order with a heavy tail of 20: the walk stops near the tail
    val n = 3000
    val o = PeelOrder.fromArrays((0 until n).toArray, Array.tabulate(n)(i => if (i >= n - 20) 10.0 else 1.0), n - 1)
    assert(o.detect().size == 20 && o.lastWalkLength < 300)
    // raising [100, 1100) to 40 makes the suffix from 100 the densest
    (100 until 1100).foreach(i => o.set(o.start + i, i, 40.0))
    assert(o.detect().size == n - 100)
    assertDetectMatchesFull(o, "after rewrite")
    // a later write behind the heavy region must keep its block maxima
    o.set(o.start + 2500, 2500, 1.0)
    assertDetectMatchesFull(o, "after a rewrite behind the heavy region")
    // 1100 zero-weight head inserts open new head blocks in front
    (n until n + 1100).foreach(v => o.prepend(v, 0.0))
    assert(o.detect().size == n - 100)
    assertDetectMatchesFull(o, "after reallocation")
  }

  test("the β-cut tolerance is relative to the cut") {
    // best = 1000 (last entry); β = 0.5 puts the cut at 500. The 3-suffix
    // sits 2e-7 below it: outside an absolute 1e-12, inside 1e-9 relative.
    val w = 3 * (500 - 2e-7) - 1000
    val o = PeelOrder.fromArrays(Array(0, 1, 2, 3), Array(0.0, w, 0.0, 1000.0), 3)
    assert(o.detectThreshold(0.5).memberSet == Set(1, 2, 3))
    assertDetectMatchesFull(o, "relative cut")
  }

  test("Spade's order after random insert, batch, grouped and delete sequences") {
    val metrics = Seq(Suspiciousness.DW, Suspiciousness.DG, new Suspiciousness.Fraudar())
    var (pruned, walks) = (0, 0)
    for (metric <- metrics; seed <- 1L to 4L) {
      val rng = new scala.util.Random(seed)
      val n = 700
      val block = (0 until 12).map(i => 100 + 37 * i)
      val planted = for (a <- block; b <- block if a < b) yield Tx(a, b, 6.0)
      val txs = randomTxs(n, 1200, seed) ++ planted
      val spade = loadedSpade(metric, txs)
      val live = scala.collection.mutable.ArrayBuffer(txs: _*)
      def fresh(): Tx = {
        val a = rng.nextInt(n + 20); var b = rng.nextInt(n + 20)
        while (b == a) b = rng.nextInt(n + 20)
        Tx(a, b, (1 + rng.nextInt(40)) * 0.25)
      }
      (1 to 40).foreach { step =>
        rng.nextInt(5) match {
          case 0 => val t = fresh(); spade.insertEdge(t); live += t
          case 1 => val ts = Seq.fill(1 + rng.nextInt(30))(fresh()); spade.insertBatchEdges(ts); live ++= ts
          case 2 => (1 to 10).foreach { _ => val t = fresh(); spade.insertGrouped(t); live += t }
          case 3 => spade.flushPending()
          case _ =>
            spade.flushPending()
            val t = live.remove(rng.nextInt(live.length))
            assert(spade.deleteEdge(t.src, t.dst).isDefined)
        }
        val clue = s"${metric.name} seed=$seed step=$step"
        assertDetectMatchesFull(spade.order, clue)
        spade.detect()
        walks += 1
        if (spade.order.lastWalkLength < spade.order.length) pruned += 1
      }
    }
    assert(2 * pruned > walks, s"only $pruned of $walks walks stopped early: the check above is near vacuous")
  }

  test("a planted dense block stops the walk within |block| + 2 blocks") {
    val rng = new scala.util.Random(3)
    val n = 20000
    val background = randomTxs(n, 30000, 9).map(_.copy(amount = 1.0))
    val block = (0 until 40).map(i => 500 * i + 7)
    val planted = for (a <- block; b <- block if a < b) yield Tx(a, b, 10.0)
    val spade = loadedSpade(Suspiciousness.DW, rng.shuffle(background ++ planted))
    val o = spade.order
    val c = spade.detect()
    assert(c.memberSet == block.toSet)
    assert(o.lastWalkLength <= block.size + 2 * 256, s"walked ${o.lastWalkLength} of ${o.length}")
    val s = spade.detectSuspects(0.6)
    assert(o.lastWalkLength <= s.size + 2 * 256, s"walked ${o.lastWalkLength} of ${o.length}")
    assertDetectMatchesFull(o, "planted block")
  }

  private def same(got: Community, want: Community, clue: String): Unit = {
    assert(got.density == want.density, s"$clue: density ${got.density} vs ${want.density}")
    assert(got.members.sameElements(want.members), s"$clue: members differ (|got|=${got.size}, |want|=${want.size})")
  }

  test("an unchanged order walks once for detect, density and the suspects, and keeps their instances") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(700, 2000, 3))
    spade.insertEdge(Tx(1, 2, 5.0))
    val o = spade.order
    val w0 = o.walks
    val c = spade.detect()
    val s = spade.detectSuspects(PeelOrder.SpotBeta)
    assert(o.density() == c.density)
    assert(spade.detect() eq c)
    assert(spade.community eq c)
    assert(spade.detectSuspects() eq s)
    assert(o.walks == w0 + 1, s"${o.walks - w0} walks")
    same(c, fullDetect(o), "detect")
    same(s, fullDetectThreshold(o, PeelOrder.SpotBeta), "suspects")
    // A walk at another β keeps nothing: the kept answer stands.
    same(o.detectThreshold(0.3), fullDetectThreshold(o, 0.3), "β = 0.3")
    assert(o.detect() eq c)
    assert(o.detectThreshold(PeelOrder.SpotBeta) eq s)
    assert(o.walks == w0 + 2, s"${o.walks - w0} walks")
  }

  test("every change of the order makes the next detector call walk again") {
    val n = 700
    val block = (0 until 12).map(i => 100 + 37 * i)
    val planted = for (a <- block; b <- block if a < b) yield Tx(a, b, 6.0)
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(n, 2000, 4) ++ planted, FlushPolicy.Every(1000))
    val o = spade.order
    /** `change` once the answer is kept: then exactly one walk, and the full walks' answer. */
    def afterward(what: String, walks: Int = 1)(change: => Unit): Unit = {
      spade.detect()
      spade.detectSuspects()
      val w0 = o.walks
      change
      val c = o.detect()
      val s = o.detectThreshold(PeelOrder.SpotBeta)
      assert(o.walks == w0 + walks, s"$what: ${o.walks - w0} walks")
      same(c, fullDetect(o), s"$what: detect")
      same(s, fullDetectThreshold(o, PeelOrder.SpotBeta), s"$what: suspects")
    }
    afterward("insertEdge")(spade.insertEdge(Tx(3, 4, 2.0)))
    afterward("insertBatchEdges")(spade.insertBatchEdges(Seq(Tx(5, 6, 1.0), Tx(block(0), 7, 9.0), Tx(8, 9, 0.5))))
    afterward("a buffered insertGrouped", walks = 0)(assert(spade.insertGrouped(Tx(10, 11, 3.0)).isEmpty))
    afterward("flushPending")(spade.flushPending()) // its own detect walks
    afterward("deleteEdge")(assert(spade.deleteEdge(block(1), block(2)).isDefined)) // its density walks
    afterward("an insert that creates a vertex")(spade.insertEdge(Tx(spade.graph.numVertices, block(3), 4.0)))
    afterward("set")(o.set(o.end - 1, o.vertexAt(o.end - 1), 1e6))
    assert(o.detect().size == 1)
  }

  test("releasing the tail block alone drops the kept answer") {
    // A merge releases the blocks it has read out and touches the blocks it
    // writes; this isolates the release. The tail has no next block to
    // touch, so `release` itself must mark the walk stale. (The released
    // entries keep their dangling locations: nothing here reads them.)
    val ws = Array.tabulate(512)(i => if (i >= 256) 10.0 else (i % 5).toDouble)
    val o = PeelOrder.fromArrays((0 until 512).toArray, ws, 511)
    assert(o.detect().size == 256)
    o.release(o.nextBlock(o.headBlock))
    same(o.detect(), PeelOrder.fromArrays((0 until 256).toArray, ws.take(256), 511).detect(), "after the release")
  }

  test("a uniform graph walks the whole order and returns the full-walk answer") {
    val k = 400
    val clique = for (a <- 0 until k; b <- a + 1 until k) yield Tx(a, b, 1.0)
    val spade = loadedSpade(Suspiciousness.DW, clique)
    val c = spade.detect()
    assert(spade.order.lastWalkLength == k)
    assert(c.size == k)
    assertDetectMatchesFull(spade.order, "clique")
  }
}
