package repro.core.lorenzo

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGrids
import repro.core.Metrics

class LorenzoSpec extends AnyFunSuite {

  private def roundTrip(grid: repro.core.GridData, eb: Double, order: Int): Unit = {
    val work = grid.copyGrid
    val (codes, outliers) = Lorenzo.compressWith(work, eb, order)
    assert(codes.length == grid.size)
    val back = Lorenzo.decompressWith(grid.dims, eb, order, codes, outliers)
    assert(back.data.toSeq == work.data.toSeq, "decompression != compressor reconstruction")
    val maxErr = Metrics.maxAbsError(grid.data, back.data)
    assert(maxErr <= eb + 1e-12, s"bound violated: $maxErr > $eb (order $order)")
  }

  test("order-1 3-D round-trip within bound") { roundTrip(TestGrids.smooth3D(), 1e-3, 1) }

  test("order-2 3-D round-trip within bound") { roundTrip(TestGrids.smooth3D(), 1e-3, 2) }

  test("order-1 2-D round-trip") { roundTrip(TestGrids.smooth2D(), 1e-4, 1) }

  test("order-2 1-D round-trip") { roundTrip(TestGrids.smooth1D(), 1e-4, 2) }

  test("noise input round-trips (outlier heavy)") { roundTrip(TestGrids.noise3D(), 1e-6, 1) }

  test("constant input predicts exactly after first point") {
    val g = TestGrids.const3D()
    val work = g.copyGrid
    val (codes, outliers) = Lorenzo.compressWith(work, 1e-6, 1)
    // all codes should be the exact-hit code except possibly the first point
    assert(codes.tail.forall(_ == repro.core.LinearQuantizer.Radius))
    assert(outliers.length <= 1)
  }

  test("order-2 beats order-1 on smooth quadratic-trend data") {
    val g = repro.core.GridData.toFloatPrecision(
      repro.core.GridData.tabulate(Array(16, 16, 16))(c => 0.01 * (c(0) * c(0) + c(1) * c(1) + c(2) * c(2))))
    val t1 = Lorenzo.trial(g, 1e-4, 1)
    val t2 = Lorenzo.trial(g, 1e-4, 2)
    assert(t2.meanAbsErr < t1.meanAbsErr)
  }

  test("trial reports plausible statistics") {
    val g = TestGrids.smooth3D()
    Seq(1, 2).map(Lorenzo.trial(g, 1e-3, _)).foreach { t =>
      assert(t.nPredicted == g.size)
      assert(t.meanAbsErr >= 0)
      assert(t.reconMse >= 0 && t.reconMse <= 1e-3 * 1e-3 + 1e-15)
      assert(t.estPayloadBits >= 0)
    }
  }

  test("integer data round-trips") { roundTrip(TestGrids.ints2D(), 0.5, 1) }
}
