package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.Tx

/** Bridge between the DataFrame world (generation, streaming) and the
  * driver-side evolving-graph state that Spade maintains.
  *
  * The transaction *stream* is distributed data; the peeling sequence is an
  * inherently sequential driver-side structure (the paper's algorithm is a
  * priority-queue merge), so the boundary is: DataFrames produce ordered
  * micro-batches of [[Tx]], Spade consumes them.
  */
object TxFrames {

  /** The five transaction columns (src, dst, amount, ts, fraudId), cast to
    * the types of [[Tx]]'s fields and in their order; `toTx` decodes a row.
    */
  def txColumns(df: DataFrame): DataFrame =
    df.select(col("src").cast("int"), col("dst").cast("int"),
              col("amount").cast("double"), col("ts").cast("double"),
              col("fraudId").cast("int"))

  /** Decode one row of `txColumns`. */
  def toTx(r: Row): Tx = Tx(r.getInt(0), r.getInt(1), r.getDouble(2), r.getDouble(3), r.getInt(4))

  /** Collect a transaction DataFrame into a `Tx` array, in arrival order. */
  def collectOrdered(df: DataFrame): Array[Tx] =
    txColumns(df).orderBy("ts", "src", "dst").collect().map(toTx)

  /** Split a stream into the initial graph (first `1 - incrementFraction`)
    * and the increments (the tail), as §5 does with the Grab datasets.
    */
  def splitInitialIncrements(txs: Array[Tx], incrementFraction: Double): (Array[Tx], Array[Tx]) = {
    require(incrementFraction > 0 && incrementFraction < 1, "fraction must be in (0,1)")
    val cut = math.max(0, (txs.length * (1 - incrementFraction)).toInt)
    (txs.take(cut), txs.drop(cut))
  }
}
