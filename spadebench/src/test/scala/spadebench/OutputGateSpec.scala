package spadebench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Spade, Suspiciousness, Tx}

class OutputGateSpec extends AnyFunSuite {

  /** A connected random graph with two-decimal amounts, as the generator makes. */
  private def txs(seed: Long): Seq[Tx] = {
    val rng = new scala.util.Random(seed)
    val ring = (0 until 40).map(i => Tx(i, (i + 1) % 40, 1.0 + rng.nextInt(500) / 100.0))
    val chords = (0 until 160).map { _ =>
      val a = rng.nextInt(40)
      Tx(a, (a + 1 + rng.nextInt(39)) % 40, 0.5 + rng.nextInt(3000) / 100.0)
    }
    ring ++ chords
  }

  private def maintained(metric: Suspiciousness): Spade = {
    val all = txs(7)
    val spade = new Spade(metric)
    spade.loadGraph(all.take(150))
    all.drop(150).foreach(spade.insertEdge)
    spade
  }

  private def swapEnds(spade: Spade): Unit = {
    val o = spade.order
    val (a, b) = (o.start, o.end - 1)
    val (va, wa, vb, wb) = (o.vertexAt(a), o.weightAt(a), o.vertexAt(b), o.weightAt(b))
    o.set(a, vb, wb)
    o.set(b, va, wa)
  }

  for ((metric, exact) <- Seq((Suspiciousness.DG, true), (Suspiciousness.DW, false), (Suspiciousness.FD, false))) {
    test(s"${metric.name}: an incrementally maintained order passes") {
      val s = maintained(metric)
      assert(OutputGate.check(s.graph, s.order, exact).isEmpty)
    }

    test(s"${metric.name}: an order with two entries swapped is rejected") {
      val s = maintained(metric)
      swapEnds(s)
      assert(OutputGate.check(s.graph, s.order, exact).nonEmpty)
    }
  }
}
