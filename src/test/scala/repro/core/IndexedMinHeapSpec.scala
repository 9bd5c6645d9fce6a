package repro.core

import org.scalatest.funsuite.AnyFunSuite

class IndexedMinHeapSpec extends AnyFunSuite {

  test("empty heap reports empty") {
    val h = new IndexedMinHeap()
    assert(h.isEmpty && !h.nonEmpty && h.size == 0)
  }

  test("single insert / pop") {
    val h = new IndexedMinHeap()
    h.insert(7, 3.5)
    assert(h.size == 1 && h.minId == 7 && h.minKey == 3.5 && h.contains(7))
    assert(h.popMin() == 7)
    assert(h.isEmpty && !h.contains(7))
  }

  test("pops in key order") {
    val h = new IndexedMinHeap()
    Seq(4 -> 4.0, 1 -> 1.0, 3 -> 3.0, 2 -> 2.0, 0 -> 5.0).foreach { case (id, k) => h.insert(id, k) }
    assert((1 to 5).map(_ => h.popMin()) == Seq(1, 2, 3, 4, 0))
  }

  test("equal keys break ties by id") {
    val h = new IndexedMinHeap()
    Seq(9, 2, 5, 7, 0).foreach(id => h.insert(id, 1.0))
    assert((1 to 5).map(_ => h.popMin()) == Seq(0, 2, 5, 7, 9))
  }

  test("decrease-key moves an entry up") {
    val h = new IndexedMinHeap()
    h.insert(0, 10.0); h.insert(1, 5.0); h.insert(2, 7.0)
    h.addTo(0, -9.0)
    assert(h.minId == 0)
    assert(h.keyOf(0) == 1.0)
  }

  test("increase-key moves an entry down") {
    val h = new IndexedMinHeap()
    h.insert(0, 1.0); h.insert(1, 5.0); h.insert(2, 7.0)
    h.addTo(0, 8.0)
    assert(h.minId == 1)
    assert(h.popMin() == 1 && h.popMin() == 2 && h.popMin() == 0)
  }

  test("addTo applies a delta") {
    val h = new IndexedMinHeap()
    h.insert(3, 10.0)
    h.addTo(3, -4.0)
    assert(h.keyOf(3) == 6.0)
    h.addTo(3, 1.5)
    assert(h.keyOf(3) == 7.5)
  }

  test("clear removes everything and allows reuse") {
    val h = new IndexedMinHeap()
    (0 until 10).foreach(i => h.insert(i, i.toDouble))
    h.clear()
    assert(h.isEmpty && !(0 until 10).exists(h.contains))
    h.insert(5, 2.0)
    assert(h.minId == 5)
  }

  test("ids grow the internal capacity on demand") {
    val h = new IndexedMinHeap(2)
    h.insert(1000, 1.0)
    h.insert(5, 0.5)
    assert(h.popMin() == 5 && h.popMin() == 1000)
  }

  test("duplicate insert is rejected") {
    val h = new IndexedMinHeap()
    h.insert(1, 1.0)
    intercept[IllegalArgumentException](h.insert(1, 2.0))
  }

  test("addTo on absent id is rejected") {
    val h = new IndexedMinHeap()
    intercept[IllegalArgumentException](h.addTo(3, 1.0))
  }

  test("popMin on empty heap is rejected") {
    intercept[IllegalArgumentException](new IndexedMinHeap().popMin())
  }

  test("property: pops are sorted by (key, id) under random change-key workloads") {
    (1L to 25L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val h = new IndexedMinHeap()
      val keys = scala.collection.mutable.Map.empty[Int, Double]
      (0 until 200).foreach { _ =>
        val id = rng.nextInt(60)
        val k = rng.nextInt(1000) / 100.0
        if (keys.contains(id)) { val d = k - keys(id); h.addTo(id, d); keys(id) += d }
        else { h.insert(id, k); keys(id) = k }
      }
      val popped = Iterator.continually(if (h.nonEmpty) Some((h.minKey, h.popMin())) else None)
        .takeWhile(_.isDefined).flatten.toList
      val expected = keys.toList.map { case (id, k) => (k, id) }.sorted
      assert(popped == expected, s"seed $seed")
    }
  }

  test("property: minKey really is the minimum under interleaved pops and inserts") {
    (1L to 10L).foreach { seed =>
      val rng = new scala.util.Random(seed)
      val h = new IndexedMinHeap()
      var nextId = 0
      (0 until 120).foreach { _ =>
        h.insert(nextId, rng.nextInt(10000) / 100.0); nextId += 1
        if (nextId % 3 == 0 && h.nonEmpty) {
          val mk = h.minKey
          h.popMin()
          assert(!(0 until nextId).exists(id => h.contains(id) && h.keyOf(id) < mk), s"seed $seed")
        }
      }
    }
  }

  test("property: the 4-ary heap matches a sorted reference under every operation") {
    // 1, 5, 21 and 85 entries fill one, two, three and four levels of a
    // 4-ary heap; each size is run as a target the workload hovers around.
    val sizes = Seq(1, 2, 3, 4, 5, 6, 17, 20, 21, 22, 84, 85, 86)
    for (target <- sizes; seed <- 1L to 4L) {
      val rng = new scala.util.Random(seed * 1000 + target)
      val universe = 2 * target + 3
      val h = new IndexedMinHeap(1 + rng.nextInt(4))
      val ref = scala.collection.mutable.Map.empty[Int, Double]
      // Few distinct keys, so ties (broken by id) are common.
      def key(): Double = rng.nextInt(6) * 0.5
      def check(op: String): Unit = {
        val clue = s"target $target seed $seed after $op"
        assert(h.size == ref.size && h.isEmpty == ref.isEmpty, clue)
        (0 until universe).foreach { id =>
          assert(h.contains(id) == ref.contains(id), s"$clue: contains($id)")
          if (ref.contains(id)) assert(h.keyOf(id) == ref(id), s"$clue: keyOf($id)")
        }
        if (ref.nonEmpty) {
          val (k, id) = ref.toList.map { case (i, k) => (k, i) }.min
          assert(h.minKey == k && h.minId == id, clue)
        }
      }
      def absent(): Int = Iterator.continually(rng.nextInt(universe)).find(!ref.contains(_)).get
      def present(): Int = ref.keys.toIndexedSeq(rng.nextInt(ref.size))
      (0 until 400).foreach { step =>
        val grow = ref.size < target
        rng.nextInt(12) match {
          case 0 | 1 | 2 if grow || ref.size < universe =>
            val id = absent(); val k = key()
            h.insert(id, k); ref(id) = k; check(s"insert($id, $k)")
          case 3 | 4 if ref.nonEmpty =>
            val id = present(); val k = ref(id) - 0.5 * (1 + rng.nextInt(3))
            val d = k - ref(id); h.addTo(id, d); ref(id) += d; check(s"addTo($id, $d) down")
          case 5 | 6 if ref.nonEmpty =>
            val id = present(); val k = ref(id) + 0.5 * rng.nextInt(3)
            val d = k - ref(id); h.addTo(id, d); ref(id) += d; check(s"addTo($id, $d) up or same")
          case 7 | 8 if ref.nonEmpty =>
            val id = present(); val d = (rng.nextInt(5) - 2) * 0.5
            h.addTo(id, d); ref(id) += d; check(s"addTo($id, $d)")
          case 9 | 10 if ref.nonEmpty && !grow =>
            val (_, id) = ref.toList.map { case (i, k) => (k, i) }.min
            assert(h.popMin() == id, s"target $target seed $seed step $step: popMin")
            ref -= id; check("popMin")
          case 11 if step % 97 == 11 =>
            h.clear(); ref.clear(); check("clear")
          case _ => ()
        }
      }
      val drained = Iterator.continually(h).takeWhile(_.nonEmpty).map(q => (q.minKey, q.popMin())).toList
      assert(drained == ref.toList.map { case (i, k) => (k, i) }.sorted, s"target $target seed $seed: drain")
    }
  }
}
