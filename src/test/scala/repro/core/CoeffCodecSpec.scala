package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CoeffCodecSpec extends AnyFunSuite {

  private def roundTrip(codes: Array[Int]): Unit =
    assert(CoeffCodec.decode(CoeffCodec.encode(codes)).toSeq == codes.toSeq)

  test("empty") { roundTrip(Array.emptyIntArray) }

  test("zeros only") { roundTrip(Array.fill(1000)(0)) }

  test("small signed values") { roundTrip(Array(-3, -1, 0, 1, 2, 0, -2)) }

  test("values beyond the escape threshold") {
    roundTrip(Array(0, 1 << 20, -(1 << 20), 5, Int.MaxValue, Int.MinValue, -7))
  }

  test("random mixtures (seeded)") {
    val rnd = new Random(1)
    for (_ <- 0 until 10) {
      val codes = Array.fill(rnd.nextInt(5000)) {
        if (rnd.nextDouble() < 0.9) rnd.nextInt(21) - 10
        else rnd.nextInt() // occasionally huge
      }
      roundTrip(codes)
    }
  }

  test("sparse codes compress well") {
    val rnd = new Random(2)
    val codes = Array.fill(100000)(if (rnd.nextDouble() < 0.98) 0 else rnd.nextInt(9) - 4)
    val enc = CoeffCodec.encode(codes)
    assert(enc.length < codes.length / 2, s"sparse stream should shrink, got ${enc.length}")
    roundTrip(codes)
  }
}

class OutlierCorrectionSpec extends AnyFunSuite {

  test("corrections pull every point within the bound") {
    val rnd = new Random(3)
    val eb = 0.01
    val orig = Array.fill(10000)(rnd.nextDouble() * 10)
    val recon = orig.map(v => v + (rnd.nextDouble() - 0.5) * 0.2) // errors up to 0.1 >> eb
    // encode applies corrections in place
    OutlierCorrection.encode(orig, recon, eb)
    orig.zip(recon).foreach { case (o, r) => assert(math.abs(o - r) <= eb) }
  }

  test("decoder replays corrections identically") {
    val rnd = new Random(4)
    val eb = 0.005
    val orig = Array.fill(5000)(rnd.nextGaussian())
    val reconA = orig.map(v => v + rnd.nextGaussian() * 0.02)
    val reconB = reconA.clone()
    val encoded = OutlierCorrection.encode(orig, reconA, eb)
    OutlierCorrection.apply(reconB, encoded, eb)
    assert(reconA.toSeq == reconB.toSeq)
  }

  test("no outliers → tiny encoding") {
    val orig = Array.fill(1000)(1.0)
    val recon = orig.map(_ + 1e-6)
    val encoded = OutlierCorrection.encode(orig, recon, 0.01)
    assert(encoded.length < 32)
    val r2 = orig.map(_ + 1e-6)
    OutlierCorrection.apply(r2, encoded, 0.01)
    assert(r2.toSeq == recon.toSeq)
  }

  test("all points outliers") {
    val orig = Array.tabulate(100)(i => i * 1.0)
    val recon = Array.fill(100)(0.0)
    val encoded = OutlierCorrection.encode(orig, recon, 0.5)
    orig.zip(recon).foreach { case (o, r) => assert(math.abs(o - r) <= 0.5) }
    val r2 = Array.fill(100)(0.0)
    OutlierCorrection.apply(r2, encoded, 0.5)
    assert(r2.toSeq == recon.toSeq)
  }
}
