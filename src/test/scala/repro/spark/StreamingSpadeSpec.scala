package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.{SparkSpec, SynthData}
import repro.SynthData.TxStreamSpec
import repro.core.{Spade, Suspiciousness, Tx}

/** Top-level so Spark can generate an encoder for it. */
case class TxRow(src: Int, dst: Int, amount: Double, ts: Double, fraudId: Int)

/** Structured-Streaming micro-batch maintenance: the streaming pipeline must
  * end in exactly the state an offline batch replay produces.
  */
class StreamingSpadeSpec extends SparkSpec {

  private def streamData(): (Array[Tx], Array[Tx]) = {
    val spec = TxStreamSpec(name = "stream", nCustomers = 150, nMerchants = 80,
      backgroundEdges = 1200, ratePerSec = 50, initBlocks = 1, incBlocks = 1,
      blockCustomers = 4, blockMerchants = 3, blockMultiplicity = 6, seed = 13)
    val txs = TxFrames.collectOrdered(SynthData.txStream(spark, spec))
    TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
  }

  private def runStream(init: Array[Tx], chunks: Seq[Array[Tx]]): StreamingSpade = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[TxRow]
    val pipeline = new StreamingSpade(Suspiciousness.DW)
    pipeline.initialize(init.toSeq)
    val query = pipeline.start(source.toDF(), queryName = s"spade-test-${System.nanoTime()}")
    try {
      chunks.foreach { chunk =>
        source.addData(chunk.map(t => TxRow(t.src, t.dst, t.amount, t.ts, t.fraudId)).toSeq)
        query.processAllAvailable()
      }
    } finally query.stop()
    pipeline
  }

  test("micro-batched streaming equals offline batch insertion") {
    val (init, inc) = streamData()
    val chunks = inc.grouped(40).toSeq
    val pipeline = runStream(init, chunks)

    val offline = new Spade(Suspiciousness.DW)
    offline.loadGraph(init.toSeq)
    chunks.foreach(c => offline.insertBatchEdges(c.toSeq))

    assert(pipeline.spade.graph.numEdges == offline.graph.numEdges)
    assert(pipeline.spade.order.toVertexSeq == offline.order.toVertexSeq)
    assert(math.abs(pipeline.spade.detect().density - offline.detect().density) < 1e-9)
  }

  test("every micro-batch produces a report with the running community") {
    val (init, inc) = streamData()
    val chunks = inc.grouped(30).toSeq
    val pipeline = runStream(init, chunks)
    assert(pipeline.edgeCount == inc.length)
    assert(pipeline.batchCount == chunks.length) // one report per batch
    val last = pipeline.lastReport
    assert(last.isDefined && last.get.batchId == chunks.length - 1)
    assert(last.get.edges == chunks.last.length)
    assert(last.get.community.density > 0)
  }

  test("the planted increment block is spotted while streaming") {
    val (init, inc) = streamData()
    val blockVertices = inc.filter(_.fraudId >= 0).flatMap(t => Seq(t.src, t.dst)).toSet
    val chunks = inc.grouped(25).toSeq
    val pipeline = runStream(init, chunks)
    assert(pipeline.spottedVertices.intersect(blockVertices).nonEmpty,
      s"block $blockVertices never spotted")
    // the block is first spotted by a batch holding block edges, not before
    val firstSpot = blockVertices.flatMap(pipeline.firstSpottedBatch).min
    val firstBlockBatch = chunks.indexWhere(_.exists(_.fraudId >= 0))
    assert(firstSpot >= firstBlockBatch, s"spotted in batch $firstSpot, block arrives in $firstBlockBatch")
    assert(chunks(firstSpot.toInt).exists(_.fraudId >= 0), s"batch $firstSpot holds no block edge")
  }

  test("chunk boundaries do not change the final state (exactly-once folding)") {
    val (init, inc) = streamData()
    val a = runStream(init, inc.grouped(17).toSeq)
    val b = runStream(init, inc.grouped(64).toSeq)
    // generator amounts are not dyadic, so fp ties may legally flip between
    // chunkings — compare graph size, order length and detected density
    assert(a.spade.graph.numEdges == b.spade.graph.numEdges)
    assert(a.spade.order.length == b.spade.order.length)
    assert(math.abs(a.spade.detect().density - b.spade.detect().density) < 1e-6)
  }
}
