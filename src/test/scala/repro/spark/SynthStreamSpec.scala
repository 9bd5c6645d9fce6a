package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.SynthData.TxStreamSpec

/** The synthetic transaction-stream generator standing in for Grab1–4 /
  * Amazon / Wiki-vote / Epinion (DESIGN.md §3).
  */
class SynthStreamSpec extends SparkSpec {

  private val spec = TxStreamSpec(
    name = "unit", nCustomers = 400, nMerchants = 200, backgroundEdges = 3000,
    ratePerSec = 50.0, initBlocks = 2, incBlocks = 2,
    blockCustomers = 5, blockMerchants = 3, blockMultiplicity = 2, seed = 7)

  private lazy val df = SynthData.txStream(spark, spec).cache()

  test("row count matches the spec") {
    assert(df.count() == spec.totalEdges)
    assert(spec.totalEdges == 3000 + 4 * 30)
  }

  test("generation is deterministic (partitioning-independent hashes)") {
    val a = df.collect().map(_.toSeq).toSeq
    val b = SynthData.txStream(spark, spec).repartition(3).orderBy("ts", "src", "dst")
      .collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("timestamps are non-decreasing in the collected order") {
    val ts = TxFrames.collectOrdered(df).map(_.ts)
    assert(ts.zip(ts.tail).forall { case (x, y) => x <= y })
  }

  test("vertex-id layout: customers, merchants, then block accounts") {
    val bg = df.filter(col("fraudId") < 0)
    val mx = bg.agg(max("src"), min("dst"), max("dst")).collect()(0)
    assert(mx.getInt(0) < spec.nCustomers)
    assert(mx.getInt(1) >= spec.nCustomers)
    assert(mx.getInt(2) < spec.baseVertices)
    val blocks = df.filter(col("fraudId") >= 0)
    assert(blocks.agg(min("src")).collect()(0).getInt(0) >= spec.baseVertices)
  }

  test("fraud blocks are complete bipartite with the requested multiplicity") {
    val b0 = df.filter(col("fraudId") === 0)
    assert(b0.count() == spec.blockEdges)
    val pairs = b0.groupBy("src", "dst").count().collect()
    assert(pairs.length == spec.blockCustomers * spec.blockMerchants)
    assert(pairs.forall(_.getLong(2) == spec.blockMultiplicity))
  }

  test("increment blocks land in the 10% tail, initial blocks before it") {
    val txs = TxFrames.collectOrdered(df)
    val (init, inc) = TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
    val initBlockIds = init.filter(_.isFraud).map(_.fraudId).toSet
    val incBlockIds = inc.filter(_.isFraud).map(_.fraudId).toSet
    assert(initBlockIds == Set(0, 1), s"initial blocks: $initBlockIds")
    assert(incBlockIds == Set(2, 3), s"increment blocks: $incBlockIds")
  }

  test("background degrees are heavy-tailed (power law, Fig. 9b)") {
    val deg = df.filter(col("fraudId") < 0).groupBy("src").count()
      .select(col("count").cast("double")).collect().map(_.getDouble(0))
    val mean = deg.sum / deg.length
    val maxDeg = deg.max
    assert(maxDeg > 4 * mean, s"max $maxDeg vs mean $mean — not heavy-tailed")
  }

  test("amounts are strictly positive") {
    assert(df.filter(col("amount") <= 0).count() == 0)
  }

  test("oracle: per-merchant transaction totals agree with DuckDB (DW mass)") {
    val grouped = df.groupBy("dst").agg(round(sum("amount"), 2).as("total"))
      .filter(col("dst") < 410) // keep the oracle table small
      .select(col("dst").cast("long").as("dst"), col("total").cast("double").as("total"))
    Oracle.assertEquivalent(
      grouped,
      """SELECT CAST(dst AS BIGINT) AS dst, ROUND(SUM(CAST(amount AS DOUBLE)), 2) AS total
        |FROM txs WHERE CAST(dst AS INT) < 410 GROUP BY dst""".stripMargin,
      "txs" -> df)
  }
}
