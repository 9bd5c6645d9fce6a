package spadebench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Spans recorded in memory around the benchmark's calls into Spade, written
  * out when the run ends. A span has a name (the public call, or `op` for
  * the root span of one hand-off), start and end in `System.nanoTime`
  * nanoseconds, its parent span (-1 for a root) and the operation id that
  * all spans of one hand-off share.
  */
final class SpanLog {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var name = new Array[Int](1024)
  private var start = new Array[Long](1024)
  private var end = new Array[Long](1024)
  private var parent = new Array[Int](1024)
  private var op = new Array[Int](1024)
  private var n = 0

  def size: Int = n

  /** Record a span; `endNs` may be filled in later with [[close]]. */
  def add(spanName: String, startNs: Long, endNs: Long, parentSpan: Int, opId: Int): Int = {
    if (n == name.length) {
      val cap = n * 2
      name = java.util.Arrays.copyOf(name, cap); start = java.util.Arrays.copyOf(start, cap)
      end = java.util.Arrays.copyOf(end, cap); parent = java.util.Arrays.copyOf(parent, cap)
      op = java.util.Arrays.copyOf(op, cap)
    }
    name(n) = nameIds.getOrElseUpdate(spanName, { names += spanName; names.length - 1 })
    start(n) = startNs; end(n) = endNs; parent(n) = parentSpan; op(n) = opId
    n += 1
    n - 1
  }

  def close(span: Int, endNs: Long): Unit = end(span) = endNs

  def nameOf(span: Int): String = names(name(span))
  def durationNs(span: Int): Long = end(span) - start(span)

  /** Durations in microseconds of every span called `spanName`. */
  def micros(spanName: String): Array[Double] = nameIds.get(spanName) match {
    case None => Array.empty
    case Some(id) => (0 until n).iterator.filter(name(_) == id).map(durationNs(_) / 1e3).toArray
  }

  /** Self time per span: its duration minus the part its children cover.
    * Children of one parent run one after another, so their durations add.
    */
  def selfNs: Array[Long] = {
    val self = Array.tabulate(n)(durationNs)
    var i = 0
    while (i < n) {
      if (parent(i) >= 0) self(parent(i)) -= durationNs(i)
      i += 1
    }
    self
  }

  /** Tab-separated spans, one a line, tagged with `pass`. */
  def writeTsv(out: PrintWriter, pass: Int): Unit = {
    var i = 0
    while (i < n) {
      out.println(s"$pass\t$i\t${nameOf(i)}\t${start(i)}\t${end(i)}\t${parent(i)}\t${op(i)}")
      i += 1
    }
  }
}

object Trace {

  /** Self time rolled up per span name over several logs. */
  final case class Rollup(name: String, spans: Long, totalNs: Long, selfNs: Long)

  def rollup(logs: Seq[SpanLog]): Seq[Rollup] = {
    val acc = mutable.LinkedHashMap.empty[String, Rollup]
    logs.foreach { log =>
      val self = log.selfNs
      (0 until log.size).foreach { i =>
        val k = log.nameOf(i)
        val r = acc.getOrElse(k, Rollup(k, 0, 0, 0))
        acc(k) = Rollup(k, r.spans + 1, r.totalNs + log.durationNs(i), r.selfNs + self(i))
      }
    }
    acc.values.toSeq
  }

  def writeSpans(file: File, logs: Seq[SpanLog]): Unit = {
    val out = new PrintWriter(file, "UTF-8")
    try {
      out.println("pass\tspan\tname\tstart_ns\tend_ns\tparent\top")
      logs.zipWithIndex.foreach { case (log, pass) => log.writeTsv(out, pass) }
    } finally out.close()
  }
}
