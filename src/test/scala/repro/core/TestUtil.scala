package repro.core

import org.scalatest.Assertions._

/** Shared helpers for the core suites. */
object TestUtil {

  /** The running example of the paper (Fig. 3 / Example 4.1 / Example C.1),
    * reconstructed so that it exhibits exactly the traces the text walks
    * through (the figure's weights are not given in the text, only the
    * behaviour):
    *
    *  - static peeling order `O = [u1, u3, u2, u4, u5]`;
    *  - inserting `(u1, u5)` with weight 4 reorders to
    *    `O' = [u3, u2, u1, u4, u5]` via the §4.1 trace (u1 enters T; u3 is
    *    emitted directly; u2 is recovered as a neighbour of u1; u2 then u1
    *    pop before u4; u4, u5 are appended);
    *  - deleting `(u1, u5)` again restores `O` (Example C.1).
    *
    * Vertices are 0-indexed: u1=0, u2=1, u3=2, u4=3, u5=4. Metric is DW
    * (edge weight = amount, no vertex priors).
    */
  val paperEdges: Seq[Tx] = Seq(
    Tx(0, 1, 2.0),  // (u1, u2) weight 2
    Tx(1, 2, 2.6),  // (u2, u3) weight 2.6
    Tx(1, 3, 1.0),  // (u2, u4) weight 1
    Tx(3, 4, 6.0),  // (u4, u5) weight 6
  )

  val paperInsertion: Tx = Tx(0, 4, 4.0) // (u1, u5) weight 4

  /** Build a Spade over `txs` with `metric`, fully loaded. */
  def loadedSpade(metric: Suspiciousness, txs: Seq[Tx],
                  policy: FlushPolicy = FlushPolicy.Grouped): Spade = {
    val s = new Spade(metric, policy)
    s.loadGraph(txs)
    s
  }

  /** The equivalence oracle against a static re-peel of the current
    * weighted graph.
    *
    * With `exact = true` (DG's integer weights, or DW over *dyadic* amounts
    * — see [[randomTxs]]) the sequence and weights must be bit-identical:
    * every sum is exact, so the (weight, id) tie-break is deterministic on
    * both paths.
    *
    * With `exact = false` (FD & friends: irrational weights, so
    * heap-decrement vs fresh-recovery summation orders differ by ulps and
    * true ties may legally flip) the oracle checks what the paper actually
    * guarantees: same length, same peel-weight multiset, same density, and
    * the maintained order is a valid greedy peeling sequence.
    */
  def assertMatchesStatic(spade: Spade, clue: String = "", exact: Boolean = true): Unit = {
    val fresh = StaticPeeling.peel(spade.graph)
    val got = spade.order
    assert(got.length == fresh.length, s"$clue: length ${got.length} vs ${fresh.length}")
    val n = got.length
    if (exact) {
      var i = 0
      while (i < n) {
        val gv = got.vertexAt(got.start + i)
        val fv = fresh.vertexAt(fresh.start + i)
        // `assert`'s clue is built eagerly: build the dump only on failure.
        if (gv != fv) fail(s"$clue: sequence diverges at step $i: incremental=u$gv static=u$fv\n" +
          s"  inc: ${got.toVertexSeq.mkString(",")}\n  sta: ${fresh.toVertexSeq.mkString(",")}")
        val gw = got.weightAt(got.start + i)
        val fw = fresh.weightAt(fresh.start + i)
        assert(math.abs(gw - fw) < 1e-7,
          s"$clue: peel weight diverges at step $i (u$gv): incremental=$gw static=$fw")
        i += 1
      }
    } else {
      // Tie-flips between fp-near-equal vertices can legally cascade into a
      // different (still greedy) order with a different weight multiset;
      // the telescoping sum Σ Δ = f(V) is invariant.
      val sumG = got.toWeightSeq.sum
      val sumF = fresh.toWeightSeq.sum
      assert(math.abs(sumG - sumF) < 1e-4 * math.max(1.0, math.abs(sumF)),
        s"$clue: weight sums differ: $sumG vs $sumF")
      assertValidGreedy(spade, clue)
    }
    val gc = got.detect()
    val fc = fresh.detect()
    assert(math.abs(gc.density - fc.density) < 1e-6, s"$clue: density ${gc.density} vs ${fc.density}")
    if (exact) assert(gc.memberSet == fc.memberSet, s"$clue: community members differ")
  }

  /** Structural validity: every position's stored weight equals Eq. (2)
    * against the suffix-active set, and each step is a minimum-weight choice
    * up to fp tolerance (id order among fp-ties is legally ambiguous —
    * different summation orders shift the last ulp). O(V²·deg) —
    * small graphs only.
    */
  def assertValidGreedy(spade: Spade, clue: String = ""): Unit = {
    val o = spade.order
    val g = spade.graph
    var p = o.start
    while (p < o.end) {
      val v = o.vertexAt(p)
      val active = (x: Int) => o.posOf(x) >= p
      val w = g.peelWeight(v)(x => active(x) && x != v)
      assert(math.abs(w - o.weightAt(p)) < 1e-6,
        s"$clue: stored weight of u$v at pos $p is ${o.weightAt(p)}, recomputed $w")
      var q = p + 1
      while (q < o.end) {
        val x = o.vertexAt(q)
        val wx = g.peelWeight(x)(y => active(y) && y != x)
        assert(wx > w - 1e-6,
          s"$clue: at pos $p, u$x (w=$wx) should have peeled before u$v (w=$w)")
        q += 1
      }
      p += 1
    }
  }

  /** Reference `Detect`: the full O(length) backward walk that
    * `PeelOrder.detect` prunes. Ties prefer the larger suffix.
    */
  def fullDetect(o: PeelOrder): Community = {
    var suffix = 0.0
    var best = Double.NegativeInfinity
    var bestIdx = o.end
    var p = o.end - 1
    while (p >= o.start) {
      suffix += o.weightAt(p)
      val dens = suffix / (o.end - p)
      if (dens >= best) { best = dens; bestIdx = p }
      p -= 1
    }
    Community(if (bestIdx == o.end) 0.0 else best, (bestIdx until o.end).map(o.vertexAt).toArray)
  }

  /** Reference spotting walk: one full pass for the best density, a second
    * for the longest suffix reaching `beta · best · (1 - CutTolerance)`.
    */
  def fullDetectThreshold(o: PeelOrder, beta: Double): Community = {
    if (o.length == 0) return Community(0.0, Array.empty)
    var suffix = 0.0
    var best = Double.NegativeInfinity
    var p = o.end - 1
    while (p >= o.start) {
      suffix += o.weightAt(p)
      best = math.max(best, suffix / (o.end - p))
      p -= 1
    }
    val cut = beta * best * (1 - PeelOrder.CutTolerance)
    suffix = 0.0
    var cutIdx = o.end
    p = o.end - 1
    while (p >= o.start) {
      suffix += o.weightAt(p)
      if (suffix / (o.end - p) >= cut) cutIdx = p
      p -= 1
    }
    Community(best, (cutIdx until o.end).map(o.vertexAt).toArray)
  }

  /** The pruned detectors return exactly what the full walks return: the
    * same members in the same order and a bit-identical density.
    */
  def assertDetectMatchesFull(o: PeelOrder, clue: String = ""): Unit = {
    def same(got: Community, want: Community, what: String): Unit = {
      assert(got.density == want.density, s"$clue: $what density ${got.density} vs ${want.density}")
      assert(got.members.sameElements(want.members),
        s"$clue: $what members differ (|got|=${got.size}, |want|=${want.size})")
    }
    same(o.detect(), fullDetect(o), "detect")
    Seq(1.0, 0.9, 0.6, 0.3, 0.05).foreach { beta =>
      same(o.detectThreshold(beta), fullDetectThreshold(o, beta), s"detectThreshold($beta)")
    }
  }

  /** A skewed customer→merchant stream: customers `[0, nCustomers)` pay
    * merchants `[nCustomers, nCustomers + nMerchants)`, both drawn with
    * power-law skew toward low ids, so a few hubs meet a long low-degree
    * tail. Amounts are dyadic like [[randomTxs]].
    */
  def skewedTxs(nCustomers: Int, nMerchants: Int, nEdges: Int, seed: Long): Seq[Tx] = {
    val rng = new scala.util.Random(seed)
    def skewed(n: Int): Int = (n * math.pow(rng.nextDouble(), 2.5)).toInt
    (0 until nEdges).map { i =>
      Tx(skewed(nCustomers), nCustomers + skewed(nMerchants), (1 + rng.nextInt(40)) * 0.25, ts = i.toDouble)
    }
  }

  /** Deterministic random transaction stream over a dense id space.
    * Amounts are dyadic rationals (multiples of 0.25) so DW sums are exact
    * in binary floating point — every tie is a true tie.
    */
  def randomTxs(nVertices: Int, nEdges: Int, seed: Long): Seq[Tx] = {
    val rng = new scala.util.Random(seed)
    (0 until nEdges).map { i =>
      val a = rng.nextInt(nVertices)
      var b = rng.nextInt(nVertices)
      while (b == a) b = rng.nextInt(nVertices)
      Tx(a, b, (1 + rng.nextInt(40)) * 0.25, ts = i.toDouble)
    }
  }
}
