package spadebench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.lang.ref.Reference
import java.nio.ByteBuffer
import java.security.MessageDigest

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.bench.BenchDatasets
import repro.core.Tx
import repro.spark.TxFrames

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** What identifies the generated stream: a digest of every transaction in
  * arrival order and the counts a run of this seed must see.
  */
final case class Fingerprint(digest: String, vertices: Int, edges: Int, initialEdges: Int,
                             increments: Int, fraud: Int, fraudFirst: Int, fraudLast: Int,
                             bursts: Seq[Int]) {
  def toMap: ListMap[String, Any] = ListMap("digest" -> digest, "vertices" -> vertices, "edges" -> edges,
    "initial_edges" -> initialEdges, "increments" -> increments, "fraud_increments" -> fraud,
    "fraud_first_index" -> fraudFirst, "fraud_last_index" -> fraudLast, "burst_starts" -> bursts)
}

object Fingerprint {
  def digest(txs: Array[Tx]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(28)
    txs.foreach { t =>
      buf.clear()
      buf.putInt(t.src).putInt(t.dst).putDouble(t.amount).putDouble(t.ts).putInt(t.fraudId)
      md.update(buf.array(), 0, 28)
    }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  def of(txs: Array[Tx], initial: Array[Tx], increments: Array[Tx]): Fingerprint = Fingerprint(
    digest(txs), txs.iterator.map(t => math.max(t.src, t.dst)).max + 1, txs.length, initial.length,
    increments.length, increments.count(_.isFraud), increments.indexWhere(_.isFraud),
    increments.lastIndexWhere(_.isFraud),
    // where each planted fraud block's burst starts among the increments
    increments.indices.filter(i => increments(i).isFraud).groupBy(i => increments(i).fraudId)
      .values.map(_.min).toSeq.sorted)
}

/** Runs one workload of the Spade benchmark and prints its result line.
  *
  * Each pass sets Spade up from the Grab1 stand-in stream and replays one
  * window of increments from the start of every fraud burst through the
  * workload's closed loop. Increments before the first window are part of
  * the bulk load; those between windows go in as one untimed batch, which
  * stands for the minutes of virtual time between bursts in which the
  * queue drains. Passes repeat until
  * `--seconds` have passed (at least three; with `--trace 1` at least four,
  * alternating untraced and traced).
  */
object Main {

  final case class Options(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                           out: File, buildId: String)

  val Usage = "usage: spadebench.Main --workload <" + Workloads.all.map(_.name).mkString("|") +
    "> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--build-id ID]"

  /** No pass starts after this many seconds of a run. */
  val MaxRunSeconds = 120.0

  def parse(argv: Seq[String]): Either[String, Options] = {
    val kv = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (argv.length % 2 != 0 || kv.size * 2 != argv.length) return Left("arguments must be --key value pairs")
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "out", "build-id")
    if (unknown.nonEmpty) return Left(s"unknown argument(s): ${unknown.mkString(", ")}")
    for {
      w <- kv.get("workload").toRight("--workload is required").flatMap(n => Workloads.named(n).toRight(s"no workload $n"))
      seed <- kv.get("seed").fold[Either[String, Long]](Right(42L))(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- kv.get("seconds").fold[Either[String, Int]](Right(8))(s => s.toIntOption.filter(_ >= 1).toRight(s"bad --seconds $s"))
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t => Left(s"bad --trace $t")
      }
    } yield Options(w, seed, secs, trace, new File(kv.getOrElse("out", "spadebench/out")), kv.getOrElse("build-id", "dev"))
  }

  def main(argv: Array[String]): Unit = parse(argv.toSeq) match {
    case Left(err) =>
      System.err.println(err)
      System.err.println(Usage)
      sys.exit(2)
    case Right(o) =>
      val ok = try new Run(o).run() catch {
        case NonFatal(e) => e.printStackTrace(); false
      }
      sys.exit(if (ok) 0 else 1)
  }
}

final class Run(o: Main.Options) {
  import Main._

  private val w = o.workload
  private val runStart = System.nanoTime()
  private val spec = BenchDatasets.grabSpecs.head.copy(seed = o.seed)
  private val tag = s"${w.name}-s${o.seed}" + (if (o.trace) "-trace" else "")

  /** Returns false when no result line could be printed. */
  def run(): Boolean = {
    o.out.mkdirs()
    val localDir = new File(o.out, "spark-local-" + ProcessHandle.current().pid())
    val t0 = System.nanoTime()
    val spark = SparkSession.builder().master("local[*]").appName("spadebench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", Runtime.getRuntime.availableProcessors().toString)
      .config("spark.local.dir", localDir.getAbsolutePath)
      .getOrCreate()
    val sessionS = (System.nanoTime() - t0) / 1e9
    try measure(spark, sessionS)
    finally {
      spark.stop()
      deleteTree(localDir)
    }
  }

  private def measure(spark: SparkSession, sessionS: Double): Boolean = {
    // Generation runs through Spark before any timing; passes collect from
    // the cached frame.
    val df = SynthData.txStream(spark, spec).cache()
    df.count()
    val fp = {
      val txs = TxFrames.collectOrdered(df)
      val (init, inc) = TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
      Fingerprint.of(txs, init, inc)
    }
    require(fp.fraud > 0, "the stream has no fraud increment")
    val windows = fp.bursts.map(b => (b, math.min(fp.increments, b + w.windowLength)))
    require(windows.zip(windows.tail).forall { case (a, b) => a._2 <= b._1 }, s"windows $windows overlap")
    log(s"stream ${fp.toMap}; windows $windows")

    pass(df, fp, windows.take(1), traced = false) // JIT warm-up, discarded
    val logs = mutable.ArrayBuffer.empty[PassLog]
    val measureStart = System.nanoTime()
    val minPasses = if (o.trace) 4 else 3
    while (logs.length < minPasses ||
      (seconds(measureStart) < o.seconds && seconds(runStart) < MaxRunSeconds)) {
      logs += pass(df, fp, windows, traced = o.trace && logs.length % 2 == 1)
      val l = logs.last
      log(f"pass ${logs.length}: setup ${l.setupNs / 1e9}%.3f s, catch-up ${l.catchUpNs / 1e9}%.3f s, ${l.ops} ops, busy ${l.jobServiceNs.sum / 1e9}%.3f s")
    }

    val problems = mutable.ArrayBuffer.empty[String]
    logs.zipWithIndex.foreach { case (l, i) =>
      l.gate.foreach(g => problems += s"pass $i output gate: $g")
      if (l.counts != logs.head.counts) problems += s"pass $i counts ${l.counts} differ from pass 0 ${logs.head.counts}"
    }
    problems ++= checkRepeat(fp, logs.head.counts)
    val views = logs.map(new Report.PassView(_)).toSeq
    val (untraced, traced) = views.partition(_.log.spans.isEmpty)
    val metrics =
      if (o.trace) Report.perLayer(untraced, traced, sessionS)
      else Report.endToEnd(untraced)
    val attempted = logs.map(_.ops).sum
    val failed = logs.map(_.counts.getOrElse("failed", 0L)).sum
    logs.flatMap(_.failures).take(5).foreach(f => problems += s"failed $f")
    val correct = problems.isEmpty

    val spansFile = new File(o.out, s"$tag-spans.tsv")
    if (o.trace) Trace.writeSpans(spansFile, traced.flatMap(_.log.spans))
    val ungated = Report.tails(untraced)
    writeResults(fp, windows, views, metrics, ungated, problems.toSeq, correct, sessionS,
      if (o.trace) Some(spansFile) else None)
    problems.foreach(p => log("PROBLEM: " + p))

    val reported = if (o.trace) metrics.filter(m => Report.EveryWorkload.contains(m.name)) else metrics
    val refused = reported.collect { case Metric(n, _, Left(why), _) => s"$n: $why" }
    if (refused.nonEmpty) {
      refused.foreach(r => log("cannot report " + r))
      return false
    }
    val line = ListMap(
      "correct" -> correct,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> ListMap(reported.collect { case Metric(n, u, Right(v), _) => n -> ListMap("value" -> v, "unit" -> u) }: _*))
    println(Json.render(line))
    true
  }

  /** Set up Spade, replay the windows of increments, check the output. */
  private def pass(df: DataFrame, fp: Fingerprint, windows: Seq[(Int, Int)], traced: Boolean): PassLog = {
    val plog = new PassLog(if (traced) Some(new SpanLog) else None, fp.vertices)
    val t0 = System.nanoTime()
    val root = plog.spans.fold(-1)(_.add("setup", t0, 0L, -1, -1))
    def step[A](name: String)(f: => A): (A, Long) = {
      val a = System.nanoTime()
      val r = f
      val b = System.nanoTime()
      plog.spans.foreach(_.add(name, a, b, root, -1))
      (r, b - a)
    }
    val (txs, collectNs) = step("collectOrdered")(TxFrames.collectOrdered(df))
    val ((init, inc), _) =
      step("splitInitialIncrements")(TxFrames.splitInitialIncrements(txs, spec.incrementFraction))
    var loaded: Loaded = null // the only reference to Spade, dropped to measure its heap
    val (_, loadNs) = step("load") { loaded = w.load(init ++ inc.take(windows.head._1)) }
    plog.setupNs = System.nanoTime() - t0
    plog.spans.foreach(_.close(root, t0 + plog.setupNs))
    plog.collectNs = collectNs
    plog.loadNs = loadNs
    plog.rows = txs.length
    plog.loadedVertices = loaded.spade.graph.numVertices
    plog.loadedEdges = loaded.spade.graph.numEdges
    require(Fingerprint.digest(txs) == fp.digest, "the collected stream changed between passes")

    var caughtUp = windows.head._1
    windows.foreach { case (from, until) =>
      if (from > caughtUp) {
        val c0 = System.nanoTime()
        w.catchUp(loaded, inc.slice(caughtUp, from))
        plog.catchUpNs += System.nanoTime() - c0
      }
      // Suspects known when a window starts were reported before it.
      plog.spotted(loaded.spade.detectSuspects(Workloads.Beta).members)
      val (gcCount0, gcMs0) = gcTotals()
      plog.beginWindow()
      w.drive(loaded, inc, from, until, plog)
      val (gcCount1, gcMs1) = gcTotals()
      plog.gcCount += gcCount1 - gcCount0
      plog.gcMs += gcMs1 - gcMs0
      caughtUp = until
    }
    plog.gate = OutputGate.check(loaded.spade.graph, loaded.spade.order, w.exactGate)

    val withSpade = retainedHeap()
    loaded = null
    plog.stateBytes = withSpade - retainedHeap()
    Seq(txs, init, inc).foreach(Reference.reachabilityFence)
    plog
  }

  /** Counts must repeat exactly across runs of one seed on one build. */
  private def checkRepeat(fp: Fingerprint, counts: collection.Map[String, Long]): Seq[String] = {
    val file = new File(o.out, s"${w.name}-s${o.seed}.counts")
    val lines = (Seq("build " + o.buildId, "digest " + fp.digest) ++ counts.map { case (k, v) => s"$k $v" }).toVector
    val previous =
      if (file.exists()) scala.util.Using.resource(scala.io.Source.fromFile(file, "UTF-8"))(_.getLines().toVector)
      else Vector.empty
    if (previous.headOption.contains(lines.head)) {
      if (previous == lines) Nil
      else Seq(s"counts differ from an earlier run of this seed: ${previous.mkString("; ")} vs ${lines.mkString("; ")}")
    } else {
      writeLines(file, lines)
      Nil
    }
  }

  private def writeResults(fp: Fingerprint, windows: Seq[(Int, Int)], views: Seq[Report.PassView],
                           metrics: Seq[Metric], ungated: Seq[Metric], problems: Seq[String], correct: Boolean,
                           sessionS: Double, spans: Option[File]): Unit = {
    val logs = views.map(_.log)
    val rollup = Trace.rollup(logs.flatMap(_.spans)).map(r => ListMap("span" -> r.name, "spans" -> r.spans,
      "total_s" -> r.totalNs / 1e9, "self_s" -> r.selfNs / 1e9))
    val doc = ListMap[String, Any](
      "workload" -> w.name, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "build" -> o.buildId, "correct" -> correct, "problems" -> problems,
      "fingerprint" -> fp.toMap,
      "windows" -> windows.map { case (a, b) => Seq(a, b) },
      "passes" -> ListMap(
        "traced" -> logs.map(_.spans.isDefined),
        "setup_s" -> logs.map(_.setupNs / 1e9),
        "catch_up_s" -> logs.map(_.catchUpNs / 1e9),
        "busy_s" -> views.map(_.busyS),
        "capacity_tx_s" -> views.map(_.capacity),
        "ops" -> logs.map(_.ops),
        "fraud_prevented" -> views.map(_.fraudPrevented),
        "fraud_total" -> views.map(_.fraudTotal),
        "state_mb" -> logs.map(_.stateBytes / 1048576.0)),
      "counts" -> ListMap(logs.head.counts.toSeq: _*),
      "spark_session_s" -> sessionS,
      "metrics" -> table(metrics),
      "ungated" -> table(ungated),
      "not_measured" -> ListMap((metrics ++ ungated).collect { case Metric(n, _, Left(why), _) => n -> why }: _*),
    ) ++ spans.map(f => ListMap("self_time" -> rollup, "spans_file" -> f.getName)).getOrElse(Nil)
    writeLines(new File(o.out, s"$tag.json"), Seq(Json.render(doc)))
  }

  private def table(ms: Seq[Metric]): ListMap[String, Any] = ListMap(ms.map(m => m.name ->
    (ListMap[String, Any]("value" -> m.value.getOrElse(0.0), "unit" -> m.unit) ++ m.detail)): _*)

  private def writeLines(file: File, lines: Seq[String]): Unit = {
    val out = new PrintWriter(file, "UTF-8")
    try lines.foreach(out.println) finally out.close()
  }

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  private def retainedHeap(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  private def seconds(since: Long): Double = (System.nanoTime() - since) / 1e9

  private def log(msg: String): Unit = System.err.println(f"[spadebench $tag ${seconds(runStart)}%.1fs] $msg")

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
