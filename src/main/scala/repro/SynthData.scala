package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The synthetic evolving transaction graph that stands in for the paper's
  * datasets (Table 3; see DESIGN.md §3). Generation runs through Spark and
  * is deterministic in the spec's seed.
  */
object SynthData {

  /** Parameters of one synthetic evolving transaction graph — the stand-in
    * for the paper's proprietary Grab1–Grab4 and the offline-unavailable
    * Amazon / Wiki-vote / Epinion datasets (Table 3). See DESIGN.md §3 for
    * the substitution argument.
    *
    * Vertex id layout: customers `[0, nCustomers)`, merchants
    * `[nCustomers, nCustomers + nMerchants)`, then fraud-block accounts
    * (fresh fake accounts per block, customers then merchants).
    *
    * @param ratePerSec       background arrival rate (edges / virtual second)
    *                         — the lever behind the Grab1-vs-Grab4 latency
    *                         inversion of Table 5
    * @param burstFactor      how much faster a fraud block's edges arrive
    * @param initBlocks       dense blocks planted inside the initial 90%
    * @param incBlocks        dense blocks planted inside the 10% increments
    */
  final case class TxStreamSpec(
      name: String,
      nCustomers: Int,
      nMerchants: Int,
      backgroundEdges: Int,
      ratePerSec: Double,
      skewGamma: Double = 1.5,
      initBlocks: Int = 6,
      incBlocks: Int = 4,
      blockCustomers: Int = 12,
      blockMerchants: Int = 6,
      blockMultiplicity: Int = 3,
      incrementFraction: Double = 0.10,
      seed: Long = 42,
  ) {
    def blockEdges: Int = blockCustomers * blockMerchants * blockMultiplicity
    def totalEdges: Int = backgroundEdges + (initBlocks + incBlocks) * blockEdges
    def baseVertices: Int = nCustomers + nMerchants
  }

  /** Deterministic uniform in (0, 1] from a row id and a salt — based on
    * xxhash64, so the result is independent of partitioning (unlike
    * `rand(seed)`), which keeps the DuckDB oracle and the driver replay in
    * exact agreement.
    */
  private def hashU(col: org.apache.spark.sql.Column, salt: Long, seed: Long): org.apache.spark.sql.Column = {
    val m = 1000000007L
    (pmod(xxhash64(col, lit(salt), lit(seed)), lit(m)) + 1).cast(DoubleType) / m.toDouble
  }

  /** Skewed draw in `[0, n)`: `floor(n · u^γ)`. Rank-0 mass is `n^(-1/γ)`
    * (≈1/1600 at n=65K, γ=1.5 — a hub, not a black hole), the tail density
    * decays as `r^(1/γ - 1)` (a power law, Fig. 9b), and coverage across the
    * id space stays high enough that the average degree matches Table 3.
    */
  private def zipfIdx(u: org.apache.spark.sql.Column, n: Int, gamma: Double): org.apache.spark.sql.Column =
    least(lit(n - 1), greatest(lit(0), floor(lit(n.toDouble) * pow(u, lit(gamma))).cast(LongType))).cast(IntegerType)

  /** Generate the full transaction stream of `spec` as a DataFrame with
    * columns (src INT, dst INT, amount DOUBLE, ts DOUBLE, fraudId INT),
    * ordered by ts. `fraudId >= 0` labels planted dense blocks; the label is
    * only read by the latency / prevention metrics, never by the detector.
    */
  def txStream(spark: SparkSession, spec: TxStreamSpec): DataFrame = {
    import spec._
    val dt = 1.0 / ratePerSec
    val streamSpan = backgroundEdges * dt

    // Background: power-law customer -> power-law merchant, exp amounts.
    val bg = spark.range(backgroundEdges).select(
      zipfIdx(hashU(col("id"), 1, seed), nCustomers, skewGamma)                    as "src",
      (zipfIdx(hashU(col("id"), 2, seed), nMerchants, skewGamma) + nCustomers)     as "dst",
      // ordinary purchases are small — what makes fraud bursts stand out
      // under DW (and keeps Definition-4.1 urgent edges rare, §4.3)
      round(lit(0.5) - log(hashU(col("id"), 3, seed)) * 1.5, 2)                    as "amount",
      (col("id").cast(DoubleType) * dt)                                            as "ts",
      lit(-1)                                                                      as "fraudId",
    )

    // Fraud blocks: complete bipartite fake-account blocks, bursty arrival.
    // Every second *increment* block is a repeat-offender wave: fresh fake
    // customers hammering the merchants of an already-known initial block
    // (the click-farming pattern of Fig. 12c) — this is what lets a banned
    // fraudster's follow-up transactions be prevented (§5.2's high R).
    val nBlocks = initBlocks + incBlocks
    val burstDt = dt / 8.0
    val perBlock = blockEdges
    val blocks = spark.range(nBlocks.toLong * perBlock).select(
      (col("id") / perBlock).cast(IntegerType)  as "b",
      (col("id") % perBlock).cast(IntegerType)  as "e",
      col("id")                                 as "id",
    ).select(
      col("b"), col("e"), col("id"),
      (when(lit(initBlocks) > 0 && col("b") >= initBlocks
              && (col("b") - initBlocks) % 2 === 1,
            (col("b") - initBlocks) % math.max(1, initBlocks))
        .otherwise(col("b")))                                                      as "merchantBlock",
    ).select(
      col("b"), col("e"),
      // vertex ids: block accounts come after the base id space; customers
      // are always the block's own fresh accounts, merchants come from
      // `merchantBlock` (own for new waves, an initial block's for reuse)
      (lit(baseVertices) + col("b") * (blockCustomers + blockMerchants)
        + (col("e") % blockCustomers))                                             as "src",
      (lit(baseVertices) + col("merchantBlock") * (blockCustomers + blockMerchants)
        + lit(blockCustomers) + ((col("e") / blockCustomers).cast(IntegerType)
                                  % blockMerchants))                               as "dst",
      // fictitious trades are sized to farm promos — much larger amounts
      round(lit(20.0) - log(hashU(col("id"), 4, seed)) * 30.0, 2)                  as "amount",
    ).select(
      col("src"), col("dst"), col("amount"),
      // initial blocks spread over [5%, 80%] of the span; increment blocks
      // over [93%, 99%] — comfortably past the 90%-by-count cut even after
      // the block edges themselves inflate the total count.
      (when(col("b") < initBlocks,
            lit(streamSpan) * (lit(0.05) + col("b") * (0.75 / math.max(1, initBlocks))))
        .otherwise(
            lit(streamSpan) * (lit(0.93) + (col("b") - initBlocks) * (0.06 / math.max(1, incBlocks))))
        + col("e") * burstDt)                                                      as "ts",
      col("b").cast(IntegerType)                                                   as "fraudId",
    )

    bg.unionByName(blocks).orderBy("ts", "src", "dst")
  }
}
