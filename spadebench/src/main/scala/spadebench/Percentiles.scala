package spadebench

/** One reported percentile and the number of samples it rests on. */
final case class Quantile(q: Double, value: Double, samples: Int)

/** Nearest-rank percentiles that refuse to report a tail the samples cannot
  * support: at least [[Percentiles.MinBeyond]] samples must lie beyond the
  * reported rank, so p99 needs 1,000 samples and p50 needs 20.
  */
object Percentiles {

  val MinBeyond = 10

  /** The `q`-quantile (0 < q < 1) of `xs`, or the reason it is refused. */
  def of(xs: Array[Double], q: Double): Either[String, Quantile] = {
    require(q > 0 && q < 1, s"quantile must be in (0, 1), got $q")
    val n = xs.length
    // 1e-9 absorbs binary rounding of q * n (0.99 * 1000 must give rank 990).
    val rank = math.max(1, math.ceil(q * n - 1e-9).toInt)
    if (n - rank < MinBeyond)
      Left(f"p${q * 100}%.0f needs $MinBeyond samples beyond it; $n samples leave ${math.max(0, n - rank)}")
    else {
      val sorted = xs.clone()
      java.util.Arrays.sort(sorted)
      Right(Quantile(q, sorted(rank - 1), n))
    }
  }
}
