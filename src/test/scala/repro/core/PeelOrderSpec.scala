package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The blocked `PeelOrder` against a flat reference: after every
  * `fromArrays`, `prepend` and `set`, and after every merge of random
  * `Spade` updates, its dense-index API (`toVertexSeq`, `toWeightSeq`,
  * `vertexAt`, `weightAt`, `posOf`) and its detectors read exactly what the
  * flat vectors say, and its own invariants hold.
  */
class PeelOrderSpec extends AnyFunSuite {
  import TestUtil._

  /** The densest suffix of `ws` (ties to the longer one): (density, length). */
  private def flatBest(ws: IndexedSeq[Double]): (Double, Int) = {
    var suffix = 0.0
    var best = Double.NegativeInfinity
    var len = 0
    var i = ws.length - 1
    while (i >= 0) {
      suffix += ws(i)
      val d = suffix / (ws.length - i)
      if (d >= best) { best = d; len = ws.length - i }
      i -= 1
    }
    (if (len == 0) 0.0 else best, len)
  }

  /** The longest suffix of `ws` within `beta` of the best density. */
  private def flatCut(ws: IndexedSeq[Double], beta: Double): Int = {
    val (best, len) = flatBest(ws)
    if (len == 0) return 0
    val cut = beta * best * (1 - PeelOrder.CutTolerance)
    var suffix = 0.0
    var cutLen = 0
    var i = ws.length - 1
    while (i >= 0) {
      suffix += ws(i)
      if (suffix / (ws.length - i) >= cut) cutLen = ws.length - i
      i -= 1
    }
    cutLen
  }

  /** Suffixes of `ws` where a product with no band, `suffix` against
    * `best·len` or `cut·len` at the running best, decides otherwise than
    * the division: (against best, against cut).
    */
  private def bandlessMisses(ws: IndexedSeq[Double], beta: Double): (Int, Int) = {
    var suffix = 0.0
    var best = Double.NegativeInfinity
    var cut = Double.NegativeInfinity
    var (missBest, missCut) = (0, 0)
    var i = ws.length - 1
    while (i >= 0) {
      suffix += ws(i)
      val n = (ws.length - i).toDouble
      val d = suffix / n
      if ((suffix < best * n) != (d < best)) missBest += 1
      if ((suffix >= cut * n) != (d >= cut)) missCut += 1
      if (d >= best) { best = d; cut = beta * best * (1 - PeelOrder.CutTolerance) }
      i -= 1
    }
    (missBest, missCut)
  }

  private def assertAgrees(o: PeelOrder, vs: IndexedSeq[Int], ws: IndexedSeq[Double], ids: Int,
                           rng: scala.util.Random, clue: String): Unit = {
    o.checkInvariants()
    assert(o.length == vs.length && o.end - o.start == vs.length, s"$clue: length")
    assert(o.toVertexSeq == vs, s"$clue: vertices")
    assert(o.toWeightSeq == ws, s"$clue: weights")
    // Random order, so that `vertexAt` searches as well as steps.
    rng.shuffle(vs.indices.toVector).foreach { i =>
      if (o.vertexAt(o.start + i) != vs(i) || o.weightAt(o.start + i) != ws(i))
        fail(s"$clue: index $i reads (${o.vertexAt(o.start + i)}, ${o.weightAt(o.start + i)}), flat (${vs(i)}, ${ws(i)})")
    }
    val index = vs.zipWithIndex.toMap
    (0 until ids).foreach { v =>
      val want = index.get(v).map(_ + o.start).getOrElse(-1)
      if (o.posOf(v) != want) fail(s"$clue: posOf($v) = ${o.posOf(v)}, flat $want")
    }
    val (best, len) = flatBest(ws)
    val c = o.detect()
    assert(c.density == best && c.members.sameElements(vs.takeRight(len)), s"$clue: detect")
    assert(o.density() == best, s"$clue: density")
    Seq(1.0, 0.6, 0.2).foreach { beta =>
      val t = o.detectThreshold(beta)
      assert(t.members.sameElements(vs.takeRight(flatCut(ws, beta))), s"$clue: detectThreshold($beta)")
    }
  }

  private def weight(rng: scala.util.Random, kind: Int): Double = kind match {
    case 0 => rng.nextInt(4).toDouble
    case 1 => 0.0
    case _ => rng.nextInt(40) * 0.25
  }

  test("fromArrays, prepend and set match a flat reference") {
    val rng = new scala.util.Random(21)
    val sizes = Seq(0, 1, 255, 256, 257, 700, 1500)
    for (n <- sizes; kind <- 0 to 2) {
      var vs = rng.shuffle((0 until n).toVector)
      var ws = Vector.fill(n)(weight(rng, kind))
      val o = PeelOrder.fromArrays(vs.toArray, ws.toArray, n - 1)
      var next = n
      assertAgrees(o, vs, ws, next, rng, s"n=$n kind=$kind fromArrays")
      (1 to 25).foreach { round =>
        rng.nextInt(3) match {
          case 0 =>
            (0 until 1 + rng.nextInt(300)).foreach { _ =>
              val w = weight(rng, kind)
              o.prepend(next, w)
              vs = next +: vs; ws = w +: ws
              next += 1
            }
          case 1 if vs.nonEmpty =>
            (0 until 1 + rng.nextInt(50)).foreach { _ =>
              val i = rng.nextInt(vs.length)
              val w = weight(rng, kind) + rng.nextInt(3)
              o.set(o.start + i, vs(i), w)
              ws = ws.updated(i, w)
            }
          case _ if vs.nonEmpty =>
            (0 until 1 + rng.nextInt(50)).foreach { _ =>
              val (i, j) = (rng.nextInt(vs.length), rng.nextInt(vs.length))
              o.set(o.start + i, vs(j), ws(j)); o.set(o.start + j, vs(i), ws(i))
              vs = vs.updated(i, vs(j)).updated(j, vs(i)); ws = ws.updated(i, ws(j)).updated(j, ws(i))
            }
          case _ =>
        }
        assertAgrees(o, vs, ws, next, rng, s"n=$n kind=$kind round=$round")
      }
    }
  }

  test("the walk without a division per entry decides like the division on adversarial vectors") {
    val rng = new scala.util.Random(77)
    val beta = PeelOrder.SpotBeta
    var (missBest, missCut, cases) = (0, 0, 0)
    def check(ws: Array[Double], clue: String): Unit = {
      val n = ws.length
      val vs = (0 until n).toVector
      val o = PeelOrder.fromArrays(vs.toArray, ws, n)
      val (best, len) = flatBest(ws)
      val c = o.detect()
      assert(c.density == best && c.members.sameElements(vs.takeRight(len)),
        s"$clue: detect (|got| ${c.size}, flat $len)")
      assert(o.density() == best, s"$clue: density")
      Seq(beta, 1.0, 0.2).foreach { b =>
        val t = o.detectThreshold(b)
        assert(t.members.sameElements(vs.takeRight(flatCut(ws, b))),
          s"$clue: detectThreshold($b) (|got| ${t.size}, flat ${flatCut(ws, b)})")
      }
      val (mb, mc) = bandlessMisses(ws, beta)
      missBest += mb; missCut += mc; cases += 1
    }
    def ulps(x: Double, k: Int): Double =
      if (k >= 0) (0 until k).foldLeft(x)((y, _) => math.nextUp(y))
      else (0 until -k).foldLeft(x)((y, _) => math.nextDown(y))

    // DG-like integer weights in long runs of equal values, and tails that
    // repeat a short integer pattern: every multiple of the period ties the
    // best exactly, at densities like 7/3 that no double holds.
    (1 to 150).foreach { i =>
      val n = 1 + rng.nextInt(900)
      val ws = new Array[Double](n)
      var at = 0
      while (at < n) {
        val v = rng.nextInt(7).toDouble
        val run = 1 + rng.nextInt(300)
        (at until math.min(n, at + run)).foreach(ws(_) = v)
        at += run
      }
      check(ws, s"runs $i")
      val pattern = Array.fill(2 + rng.nextInt(6))((1 + rng.nextInt(9)).toDouble)
      val tail = math.min(n, pattern.length * (1 + rng.nextInt(60)))
      (0 until tail).foreach(j => ws(n - tail + j) = pattern(j % pattern.length))
      (0 until n - tail).foreach(j => ws(j) = math.min(ws(j), pattern.min - 1).max(0.0))
      check(ws, s"periodic tail $i")
    }
    // Suffixes within 0-10 ulps of the best: a tail of equal weights with
    // a few ulps of noise.
    (1 to 150).foreach { i =>
      val d = rng.nextDouble() * math.pow(10, rng.nextInt(7) - 2)
      val n = 1 + rng.nextInt(600)
      val ws = Array.fill(n)(ulps(d, rng.nextInt(21) - 10))
      (0 until rng.nextInt(n)).foreach(j => ws(j) = d * rng.nextDouble())
      check(ws, s"near-best $i")
    }
    // A suffix within 1-10 ulps, or 1e-13 relative, of the cut: a heavy
    // last entry `top` sets best, and m - 1 equal weights before it bring
    // the m-suffix to the cut; zeros before them.
    (1 to 400).foreach { i =>
      val top = 1 + rng.nextDouble() * math.pow(10, rng.nextInt(5))
      val cut = beta * top * (1 - PeelOrder.CutTolerance)
      val m = 2 + rng.nextInt(400)
      val w0 = (cut * m - top) / (m - 1)
      val w =
        if (rng.nextBoolean()) ulps(w0, (1 + rng.nextInt(10)) * (if (rng.nextBoolean()) 1 else -1))
        else w0 * (1 + (if (rng.nextBoolean()) 1e-13 else -1e-13))
      val ws = Array.fill(rng.nextInt(300))(0.0) ++ Array.fill(m - 1)(w) :+ top
      check(ws, s"near-cut $i")
    }
    check(Array.fill(700)(0.0), "all zeros")
    check(Array(0.0), "one zero")
    check(Array(2.5), "one entry")
    // The vectors above must reach the band: else the property is vacuous.
    assert(missBest > 0 && missCut > 0,
      s"over $cases vectors, a bandless product misjudged $missBest best and $missCut cut tests")
  }

  test("tidy merges a small pair in front of the blocks a merge changed") {
    // A one-entry head block (a prepend onto full blocks), then the edit of
    // a merge whose heap held entries over a stepped-over block: block A's
    // first 150 entries go to a new block N in front of it, its other 106
    // to a new tail block, and A is released. Head + N now hold 151.
    val n = 768
    val o = PeelOrder.fromArrays((0 until n).toArray, Array.tabulate(n)(i => (i % 7).toDouble), n)
    o.prepend(n, 0.0)
    assert(o.posOf(n) == -1) // refreshes: the edit below is the whole dirty range
    val a = o.nextBlock(o.headBlock)
    val bits = PeelOrder.BlockBits
    val nb = o.open(a)
    o.seal(nb, 150, o.copyRun(a << bits, nb << bits, 150))
    val tail = o.open(-1)
    o.seal(tail, 106, o.copyRun((a << bits) + 150, tail << bits, 106))
    o.release(a)
    o.tidy()
    val vs = n +: ((0 until 150) ++ (256 until n) ++ (150 until 256))
    assertAgrees(o, vs, vs.map(v => if (v == n) 0.0 else (v % 7).toDouble), n + 1,
      new scala.util.Random(5), "after tidy")
  }

  test("merges of random inserts, batches and deletes match a flat static re-peel (DW, DG)") {
    Seq[Suspiciousness](Suspiciousness.DW, Suspiciousness.DG).foreach { m =>
      (1L to 3L).foreach { seed =>
        val rng = new scala.util.Random(seed * 7 + m.name.length)
        val n = 600 + rng.nextInt(1400)
        val txs = randomTxs(n, 3 * n, seed)
        val spade = loadedSpade(m, txs)
        val live = scala.collection.mutable.ArrayBuffer(txs: _*)
        def fresh(): Tx = {
          // now and then an endpoint beyond the id space: new vertices
          val a = rng.nextInt(n + 5); var b = rng.nextInt(n + 5)
          while (b == a) b = rng.nextInt(n + 5)
          Tx(a, b, (1 + rng.nextInt(40)) * 0.25)
        }
        (0 until 40).foreach { step =>
          // A run of 1-4 merges, each with its own `tidy`, between checks.
          (0 until 1 + rng.nextInt(4)).foreach { _ =>
            rng.nextInt(3) match {
              case 0 => val t = fresh(); spade.insertEdge(t); live += t
              case 1 => val ts = Seq.fill(1 + rng.nextInt(20))(fresh()); spade.insertBatchEdges(ts); live ++= ts
              case _ =>
                val t = live.remove(rng.nextInt(live.length))
                assert(spade.deleteEdge(t.src, t.dst).isDefined)
            }
          }
          val ref = StaticPeeling.peel(spade.graph)
          val clue = s"${m.name} seed $seed step $step"
          // `posOf` first, so that its own refresh derives the dense index
          // (`checkInvariants` refreshes the order too).
          val o = spade.order
          ref.toVertexSeq.zipWithIndex.foreach { case (v, i) =>
            if (o.posOf(v) != o.start + i) fail(s"$clue: posOf($v) = ${o.posOf(v)}, static ${o.start + i}")
          }
          assertAgrees(o, ref.toVertexSeq, ref.toWeightSeq, spade.graph.numVertices, rng, clue)
        }
      }
    }
  }
}
