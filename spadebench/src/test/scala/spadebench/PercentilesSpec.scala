package spadebench

import org.scalatest.funsuite.AnyFunSuite

class PercentilesSpec extends AnyFunSuite {

  private def ramp(n: Int): Array[Double] = Array.tabulate(n)(i => (n - i).toDouble) // n, ..., 1

  test("nearest-rank median reports its sample count") {
    assert(Percentiles.of(ramp(20), 0.50) == Right(Quantile(0.50, 10.0, 20)))
  }

  test("p99 of 1,000 samples has exactly ten beyond it") {
    assert(Percentiles.of(ramp(1000), 0.99) == Right(Quantile(0.99, 990.0, 1000)))
  }

  test("a percentile with fewer than ten samples beyond it is refused") {
    assert(Percentiles.of(ramp(999), 0.99).isLeft)
    assert(Percentiles.of(ramp(19), 0.50).isLeft)
    assert(Percentiles.of(Array.empty[Double], 0.50).isLeft)
  }

  test("the input is left unsorted") {
    val xs = ramp(30)
    Percentiles.of(xs, 0.5)
    assert(xs.head == 30.0)
  }
}
