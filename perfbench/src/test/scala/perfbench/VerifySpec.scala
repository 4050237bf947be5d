package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.GridData

class VerifySpec extends AnyFunSuite {
  private val eb = 0.125 // a power of two, so x + e is exact for these values
  private val orig = GridData.tabulate(Array(4, 6))(c => c(0) * 0.5 + c(1) * 0.25)
  private def withPoint(v: Double): GridData = {
    val d = orig.data.clone(); d(7) = v; new GridData(orig.dims.clone(), d)
  }

  test("accepts an exact copy and an error of exactly e") {
    assert(Verify.check(orig, orig.copyGrid, eb).isEmpty)
    assert(Verify.check(orig, withPoint(orig.data(7) + eb), eb).isEmpty)
  }

  test("rejects NaN, +Inf and -Inf") {
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      assert(Verify.check(orig, withPoint(v), eb).exists(_.contains("point 7")), s"accepted $v")
  }

  test("rejects an error of 1.01 e") {
    assert(Verify.check(orig, withPoint(orig.data(7) + 1.01 * eb), eb).isDefined)
    assert(Verify.check(orig, withPoint(orig.data(7) - 1.01 * eb), eb).isDefined)
  }

  test("rejects wrong dims with the same point count") {
    val transposed = new GridData(Array(6, 4), orig.data.clone())
    assert(Verify.check(orig, transposed, eb).exists(_.startsWith("dims")))
  }
}
