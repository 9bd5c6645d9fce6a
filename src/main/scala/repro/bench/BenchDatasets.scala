package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.SynthData.TxStreamSpec
import repro.core.Tx
import repro.spark.TxFrames

/** The seven synthetic stand-ins for Table 3 (DESIGN.md §3).
  *
  * Grab1–Grab4 are scaled ~1/40 from the paper (proprietary data); Amazon /
  * Wiki-vote / Epinion match the real sizes from Table 3 (the open datasets
  * cannot be downloaded in this offline image). The arrival rate grows from
  * Grab1 to Grab4 — the lever behind the paper's observation that batch-1K
  * latency is queueing-dominated and *higher than static* on the slow
  * dataset (Table 5: IncFD L = 2.93 on Grab1 vs 0.76 on Grab4).
  */
object BenchDatasets {

  val grabSpecs: Seq[TxStreamSpec] = Seq(
    TxStreamSpec("Grab1", nCustomers = 65000, nMerchants = 35000, backgroundEdges = 247000,
      ratePerSec = 20, initBlocks = 8, incBlocks = 6, blockMultiplicity = 6),
    TxStreamSpec("Grab2", nCustomers = 78000, nMerchants = 42000, backgroundEdges = 372000,
      ratePerSec = 40, initBlocks = 8, incBlocks = 6, blockMultiplicity = 6),
    TxStreamSpec("Grab3", nCustomers = 88000, nMerchants = 48000, backgroundEdges = 497000,
      ratePerSec = 60, initBlocks = 8, incBlocks = 6, blockMultiplicity = 6),
    TxStreamSpec("Grab4", nCustomers = 98000, nMerchants = 52000, backgroundEdges = 622000,
      ratePerSec = 80, initBlocks = 8, incBlocks = 6, blockMultiplicity = 6),
  )

  val openSpecs: Seq[TxStreamSpec] = Seq(
    TxStreamSpec("Amazon", nCustomers = 14000, nMerchants = 14000, backgroundEdges = 27500,
      ratePerSec = 10, initBlocks = 2, incBlocks = 2, blockCustomers = 6, blockMerchants = 3,
      blockMultiplicity = 2),
    TxStreamSpec("Wiki-vote", nCustomers = 8000, nMerchants = 8000, backgroundEdges = 102000,
      ratePerSec = 10, initBlocks = 3, incBlocks = 2, blockCustomers = 8, blockMerchants = 4,
      blockMultiplicity = 4),
    TxStreamSpec("Epinion", nCustomers = 176000, nMerchants = 88000, backgroundEdges = 838000,
      ratePerSec = 30, initBlocks = 6, incBlocks = 4),
  )

  val allSpecs: Seq[TxStreamSpec] = grabSpecs ++ openSpecs

  /** Generate, collect and split one dataset (cached per JVM run). */
  def load(spark: SparkSession, spec: TxStreamSpec): (Array[Tx], Array[Tx]) =
    cache.synchronized {
      cache.getOrElseUpdate(spec.name, {
        val txs = TxFrames.collectOrdered(SynthData.txStream(spark, spec))
        TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
      })
    }

  private val cache = scala.collection.mutable.HashMap.empty[String, (Array[Tx], Array[Tx])]

  /** Paper numbers recorded next to ours; benches print them beside their
    * own for quick eyeballing.
    */
  object PaperNumbers {
    /** Table 4 static columns, seconds (DG, DW, FD) per dataset. */
    val staticSeconds: Map[String, (Double, Double, Double)] = Map(
      "Grab1" -> (12.0, 14.0, 12.0), "Grab2" -> (17.0, 20.0, 16.0),
      "Grab3" -> (23.0, 27.0, 22.0), "Grab4" -> (27.0, 28.0, 28.0),
      "Amazon" -> (0.49, 0.53, 0.43), "Wiki-vote" -> (0.022, 0.021, 0.017),
      "Epinion" -> (0.25, 0.26, 0.23))

    /** Table 4 |ΔE|=1 incremental columns, µs/edge (IncDG, IncDW, IncFD). */
    val incSingleMicros: Map[String, (Double, Double, Double)] = Map(
      "Grab1" -> (6517.0, 17469.0, 6.0), "Grab2" -> (6604.0, 18413.0, 8.0),
      "Grab3" -> (6716.0, 18862.0, 11.0), "Grab4" -> (6562.0, 17469.0, 14.0),
      "Amazon" -> (350.0, 342.0, 1.0), "Wiki-vote" -> (184.0, 149.0, 2.0),
      "Epinion" -> (170.0, 151.0, 5.0))
  }
}
