package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class QuantizerSpec extends AnyFunSuite {

  private val R = LinearQuantizer.Radius

  /** One compression step: the code, and the value decompression rebuilds. */
  private def quantize(value: Double, pred: Double, eb: Double): (Int, Double) = {
    val code = LinearQuantizer.code(value, pred, eb)
    (code, if (code != 0) LinearQuantizer.reconstruct(code, pred, eb) else LinearQuantizer.escaped(value))
  }

  /** Decompression: each code's reconstruction, or the next stored outlier. */
  private def replay(preds: Seq[Double], codes: Seq[Int], outliers: Seq[Double], eb: Double): Seq[Double] = {
    val outs = outliers.iterator
    preds.zip(codes).map { case (p, c) => if (c == 0) outs.next() else LinearQuantizer.reconstruct(c, p, eb) }
  }

  test("reconstruction respects the error bound") {
    val eb = 0.01
    val rnd = new Random(1)
    for (_ <- 0 until 10000) {
      val value = (rnd.nextDouble() * 2 - 1).toFloat.toDouble
      val pred = value + rnd.nextGaussian() * 0.05
      val (_, recon) = quantize(value, pred, eb)
      assert(math.abs(recon - value) <= eb, s"|$recon - $value| > $eb")
    }
  }

  test("dequantizer replays compression exactly") {
    val eb = 0.001
    val rnd = new Random(2)
    val steps = Seq.fill(5000) {
      val value = (rnd.nextDouble() * 10).toFloat.toDouble
      val pred = value + rnd.nextGaussian() * 0.01
      val (code, recon) = quantize(value, pred, eb)
      (pred, code, recon)
    }
    val outliers = steps.collect { case (_, 0, recon) => recon }
    assert(replay(steps.map(_._1), steps.map(_._2), outliers, eb) == steps.map(_._3))
  }

  test("far-off predictions escape to outliers with code 0") {
    val (code, recon) = quantize(1.0, 500.0, 1e-6) // way outside radius*2eb
    assert(code == 0)
    assert(recon == 1.0f.toDouble)
  }

  test("perfect prediction yields the radius code") {
    assert(LinearQuantizer.code(3.0, 3.0, 0.01) == R)
  }

  test("code symmetry around radius") {
    val eb = 0.5
    assert(LinearQuantizer.code(1.0, 0.0, eb) == R + 1)  // diff = 1 = 2eb → q=1
    assert(LinearQuantizer.code(-1.0, 0.0, eb) == R - 1) // q=-1
  }

  test("bound holds at bin edges (fp rounding guard)") {
    val eb = 0.1
    // values exactly at multiples of eb relative to pred
    for (k <- -20 to 20) {
      val value = (k * eb).toFloat.toDouble
      val (_, recon) = quantize(value, 0.0, eb)
      assert(math.abs(recon - value) <= eb + 1e-15)
    }
  }

  test("dequantizer outlier replay") {
    val eb = 1e-9
    val (c1, r1) = quantize(5.0f.toDouble, 0.0, eb) // escapes
    val (c2, r2) = quantize(0.0, 0.0, eb)           // exact
    assert(c1 == 0)
    assert(replay(Seq(0.0, 0.0), Seq(c1, c2), Seq(r1), eb) == Seq(r1, r2))
  }
}

class MetricsSpec extends AnyFunSuite {

  test("mse of identical arrays is 0") {
    val a = Array(1.0, 2.0, 3.0)
    assert(Metrics.mse(a, a) == 0.0)
  }

  test("mse simple case") {
    assert(Metrics.mse(Array(0.0, 0.0), Array(1.0, 3.0)) == 5.0)
  }

  test("maxAbsError") {
    assert(Metrics.maxAbsError(Array(0.0, 5.0, -2.0), Array(1.0, 5.5, -4.0)) == 2.0)
  }

  test("maxAbsError fails every bound check when a point is NaN") {
    val orig = Array(0.0, 5.0, -2.0)
    for (i <- orig.indices) {
      val withNaN = orig.clone(); withNaN(i) = Double.NaN
      assert(Metrics.maxAbsError(orig, withNaN).isNaN, s"NaN reconstruction at $i")
      assert(Metrics.maxAbsError(withNaN, orig).isNaN, s"NaN original at $i")
      assert(!(Metrics.maxAbsError(orig, withNaN) <= 1.0))
    }
    assert(Metrics.maxAbsError(Array(1.0), Array(Double.PositiveInfinity)).isPosInfinity)
    assert(Metrics.maxAbsError(Array(Double.NegativeInfinity), Array(Double.NegativeInfinity)) == 0.0)
  }

  test("psnr of perfect reconstruction is infinite") {
    val g = GridData.tabulate(Array(4, 4))(c => c(0) + c(1).toDouble)
    assert(Metrics.psnr(g, g.copyGrid).isPosInfinity)
  }

  test("psnr matches hand computation") {
    val g = GridData.tabulate(Array(10))(c => c(0).toDouble) // range 9
    val h = GridData.tabulate(Array(10))(c => c(0) + 0.5)    // mse 0.25
    val expected = 20 * math.log10(9.0) - 10 * math.log10(0.25)
    assert(math.abs(Metrics.psnr(g, h) - expected) < 1e-12)
  }

  test("psnr decreases as distortion grows") {
    val g = GridData.tabulate(Array(100))(c => math.sin(c(0) * 0.1))
    val h1 = new GridData(g.dims, g.data.map(_ + 0.001))
    val h2 = new GridData(g.dims, g.data.map(_ + 0.01))
    assert(Metrics.psnr(g, h1) > Metrics.psnr(g, h2))
  }

  test("ssim of identical grids is 1") {
    val g = GridData.tabulate(Array(16, 16))(c => math.sin(c(0) * 0.3) + c(1))
    assert(math.abs(Metrics.ssim(g, g.copyGrid) - 1.0) < 1e-12)
  }

  test("ssim decreases with noise") {
    val g = GridData.tabulate(Array(32, 32))(c => math.sin(c(0) * 0.2) * math.cos(c(1) * 0.2))
    val rnd = new Random(3)
    val n1 = new GridData(g.dims, g.data.map(_ + rnd.nextGaussian() * 0.01))
    val n2 = new GridData(g.dims, g.data.map(_ + rnd.nextGaussian() * 0.2))
    val s1 = Metrics.ssim(g, n1)
    val s2 = Metrics.ssim(g, n2)
    assert(s1 > s2)
    assert(s1 > 0.9)
  }

  test("ssim is bounded by 1") {
    val g = GridData.tabulate(Array(16, 16, 16))(c => c.sum.toDouble)
    val rnd = new Random(4)
    val h = new GridData(g.dims, g.data.map(_ + rnd.nextGaussian()))
    val s = Metrics.ssim(g, h)
    assert(s <= 1.0 && s > -1.0)
  }

  test("bitRate and compressionRatio accounting (fp32)") {
    assert(Metrics.bitRate(1000, 1000) == 8.0)
    assert(Metrics.compressionRatio(1000, 1000) == 4.0)
  }
}
