package repro.core

import java.lang.management.ManagementFactory

import org.scalatest.funsuite.AnyFunSuite

/** The merge kernel keeps its state in fields and walks adjacency with
  * `while` loops, and the order reuses freed blocks, so a reorder allocates
  * a few fixed objects per call (the stats, the batch wrapper), never per
  * recovered vertex. A delete computes only the community's density.
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
      * bytes the insert and the whole `deleteEdge` call each allocated. DG's
      * order is exact, so every round repeats the same merges.
      */
    def insertAndUndo(t: Tx): (ReorderStats, Long, Long) = {
      val before = bean.getThreadAllocatedBytes(tid)
      val st = spade.insertEdge(t)
      val mid = bean.getThreadAllocatedBytes(tid)
      val deleted = spade.deleteEdge(t.src, t.dst)
      val deleteBytes = bean.getThreadAllocatedBytes(tid) - mid
      assert(deleted.isDefined)
      (st, mid - before, deleteBytes)
    }

    // A bounded search, so that a kernel that never recovers 500 vertices
    // fails here instead of searching forever.
    val draws = 200
    val big = Iterator.continually {
      val a = seq(rng.nextInt(seq.length))
      var b = a
      while (b == a) b = seq(rng.nextInt(seq.length))
      Tx(a, b, 1.0)
    }.take(draws).filter(t => insertAndUndo(t)._1.recovered >= 500).take(4).toList
    assert(big.length == 4, s"only ${big.length} of $draws random inserts recovered >= 500 vertices")

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

  test("the first two new accounts after a load copy no per-vertex array") {
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    assume(bean.isThreadAllocatedMemorySupported && bean.isThreadAllocatedMemoryEnabled)
    val tid = Thread.currentThread().getId
    def allocated(f: => Unit): Long = {
      val before = bean.getThreadAllocatedBytes(tid)
      f
      bean.getThreadAllocatedBytes(tid) - before
    }
    // Load the classes of the insert path on a small graph first.
    val warm = loadedSpade(Suspiciousness.DW, randomTxs(300, 900, 2))
    (0 until 3).foreach(i => warm.insertEdge(Tx(warm.graph.numVertices, i, 1.0)))

    // `loadGraph` sizes the graph, the order's locations, the kernel's marks
    // and its heap for the loaded ids plus a quarter; each array indexed by
    // vertex id would take 80-160 KB here.
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(24000, 72000, 13))
    val n = spade.graph.numVertices
    assert(n >= 20000)
    val first = allocated(spade.insertEdge(Tx(n, 0, 1.0)))
    val second = allocated(spade.insertEdge(Tx(n + 1, 1, 2.0)))
    assert(first < 64 * 1024, s"the first new account allocated $first bytes")
    assert(second < 64 * 1024, s"the second new account allocated $second bytes")
    assertMatchesStatic(spade, "two new accounts")
  }
}
