package spadebench

import repro.core.{DynGraph, PeelOrder, StaticPeeling}

/** Checks the peeling sequence Spade maintained against a static re-peel of
  * the same graph, outside any timed region.
  *
  * With integer weights (DG) every sum is exact and the order must be
  * bit-identical. With real weights (DW amounts, FD's 1/log(x+5)) summation
  * order moves the last bits and floating-point ties may legally flip, so a
  * valid greedy order can differ from the re-peel in many positions while
  * describing the same peel: there the detected density must match and
  * every stored peel weight must equal its recomputed value against the
  * vertices still unpeeled at its step.
  */
object OutputGate {

  val RelTolerance = 1e-9

  private val MaxReported = 5

  /** The failures found; empty when the order passes. */
  def check(graph: DynGraph, order: PeelOrder, exact: Boolean): Seq[String] = {
    val fresh = StaticPeeling.peel(graph)
    val n = graph.numVertices
    if (order.length != n || fresh.length != n)
      return Seq(s"order holds ${order.length} vertices, re-peel ${fresh.length}, graph $n")
    val failures = Seq.newBuilder[String]
    var reported = 0
    def fail(msg: => String): Unit = {
      if (reported < MaxReported) failures += msg
      reported += 1
    }
    if (exact) {
      var i = 0
      while (i < n) {
        val (v, w) = (order.vertexAt(order.start + i), order.weightAt(order.start + i))
        val (fv, fw) = (fresh.vertexAt(fresh.start + i), fresh.weightAt(fresh.start + i))
        if (v != fv || w != fw) fail(s"step $i: maintained (u$v, $w), re-peel (u$fv, $fw)")
        i += 1
      }
    } else {
      val (d, fd) = (order.detect().density, fresh.detect().density)
      if (!close(d, fd)) fail(s"density $d, re-peel $fd")
      var p = order.start
      while (p < order.end) {
        val v = order.vertexAt(p)
        val step = p
        val w = graph.peelWeight(v)(x => x != v && order.posOf(x) >= step)
        if (!close(order.weightAt(p), w))
          fail(s"step ${p - order.start}: u$v stores ${order.weightAt(p)}, recomputed $w")
        p += 1
      }
    }
    if (reported > MaxReported) failures += s"... ${reported - MaxReported} more"
    failures.result()
  }

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= RelTolerance * math.max(1.0, math.max(math.abs(a), math.abs(b)))
}
