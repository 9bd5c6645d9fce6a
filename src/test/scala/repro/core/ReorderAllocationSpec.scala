package repro.core

import java.lang.management.ManagementFactory

import org.scalatest.funsuite.AnyFunSuite

/** The merge kernel keeps its state in fields and walks adjacency with
  * `while` loops, so a reorder allocates a few fixed objects per call (the
  * stats, the batch wrapper, a delete's `detect` result), never per
  * recovered vertex.
  */
class ReorderAllocationSpec extends AnyFunSuite {
  import TestUtil._

  test("an insert allocates a fixed number of bytes however many vertices it recovers") {
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    assume(bean.isThreadAllocatedMemorySupported && bean.isThreadAllocatedMemoryEnabled)
    val tid = Thread.currentThread().getId
    // DG on a sparse random graph: most weights tie, so an insert recovers
    // hundreds of vertices.
    val spade = loadedSpade(Suspiciousness.DG, randomTxs(2000, 6000, 7))
    val seq = spade.order.toVertexSeq
    val rng = new scala.util.Random(3)

    /** Insert `t` and delete it again, returning the insert's stats and the
      * bytes the insert and the delete each allocated. The delete's count
      * leaves out the member array of the community its `detect` returns
      * (16 header bytes plus 4 per member, 8-byte aligned). DG's order is
      * exact, so every round repeats the same merges.
      */
    def insertAndUndo(t: Tx): (ReorderStats, Long, Long) = {
      val before = bean.getThreadAllocatedBytes(tid)
      val st = spade.insertEdge(t)
      val mid = bean.getThreadAllocatedBytes(tid)
      assert(spade.deleteEdge(t.src, t.dst).isDefined)
      val deleteBytes = bean.getThreadAllocatedBytes(tid) - mid - ((16 + 4L * spade.community.size + 7) & ~7L)
      (st, mid - before, deleteBytes)
    }

    val big = Iterator.continually {
      val a = seq(rng.nextInt(seq.length))
      var b = a
      while (b == a) b = seq(rng.nextInt(seq.length))
      Tx(a, b, 1.0)
    }.filter(t => insertAndUndo(t)._1.recovered >= 500).take(4).toList

    // Warm up: the scratch arrays reach their size and the JIT compiles.
    (0 until 300).foreach(_ => big.foreach(insertAndUndo))
    big.foreach { t =>
      val (st, bytes, deleteBytes) = insertAndUndo(t)
      assert(st.recovered >= 500, s"$t")
      assert(bytes < 4096, s"$t: recovered ${st.recovered}, allocated $bytes bytes")
      assert(deleteBytes < 4096, s"$t: the undoing delete allocated $deleteBytes bytes")
    }
    assertMatchesStatic(spade, "after the insert/delete rounds")
  }
}
