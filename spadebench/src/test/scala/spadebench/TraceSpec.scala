package spadebench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def log(): SpanLog = {
    val l = new SpanLog
    val root = l.add("op", 0L, 0L, -1, 0)
    l.add("insertEdge", 10L, 30L, root, 0)
    l.add("detect", 40L, 90L, root, 0)
    l.close(root, 100L)
    l
  }

  test("self time is the duration minus the children's") {
    assert(log().selfNs.toSeq == Seq(30L, 20L, 50L))
  }

  test("the roll-up sums spans, totals and self time per name over logs") {
    val r = Trace.rollup(Seq(log(), log())).map(x => x.name -> x).toMap
    assert(r("op") == Trace.Rollup("op", 2, 200L, 60L))
    assert(r("detect") == Trace.Rollup("detect", 2, 100L, 100L))
  }

  test("span durations by name in microseconds") {
    assert(log().micros("detect").toSeq == Seq(0.05))
    assert(log().micros("deleteEdge").isEmpty)
  }
}
