package repro.spark

import repro.{SparkSpec, SynthData}
import repro.SynthData.TxStreamSpec
import repro.core.{Spade, Suspiciousness}

/** DataFrame ↔ `Tx` bridge: loading and splitting. */
class TxFramesSpec extends SparkSpec {

  private val spec = TxStreamSpec(
    name = "bridge", nCustomers = 200, nMerchants = 100, backgroundEdges = 1500,
    ratePerSec = 50.0, initBlocks = 1, incBlocks = 1,
    blockCustomers = 4, blockMerchants = 3, blockMultiplicity = 6, seed = 11)

  private lazy val df = SynthData.txStream(spark, spec).cache()

  test("collectOrdered returns every row, ordered by ts") {
    val txs = TxFrames.collectOrdered(df)
    assert(txs.length == spec.totalEdges)
    assert(txs.zip(txs.tail).forall { case (a, b) => a.ts <= b.ts })
  }

  test("splitInitialIncrements cuts at 90/10") {
    val txs = TxFrames.collectOrdered(df)
    val (init, inc) = TxFrames.splitInitialIncrements(txs, 0.10)
    assert(init.length + inc.length == txs.length)
    assert(math.abs(init.length - 0.9 * txs.length) <= 1)
    assert(inc.forall(t => t.ts >= init.last.ts))
  }

  test("splitInitialIncrements rejects degenerate fractions") {
    val txs = TxFrames.collectOrdered(df)
    intercept[IllegalArgumentException](TxFrames.splitInitialIncrements(txs, 0.0))
    intercept[IllegalArgumentException](TxFrames.splitInitialIncrements(txs, 1.0))
  }

  test("driver replay of the collected stream detects the planted increment block") {
    val txs = TxFrames.collectOrdered(df)
    val (init, inc) = TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
    val spade = new Spade(Suspiciousness.DW)
    spade.loadGraph(init)
    spade.insertBatchEdges(inc)
    // Fig.-14 spotting: equally dense instances are all reported — the
    // increment block must sit inside the threshold community even if the
    // initial block is marginally denser.
    val suspects = spade.detectSuspects(0.6)
    val blockVertices = txs.filter(_.fraudId == 1).flatMap(t => Seq(t.src, t.dst)).toSet
    assert(blockVertices.subsetOf(suspects.memberSet),
      s"increment block $blockVertices invisible in ${suspects.memberSet.take(30)}")
  }
}
