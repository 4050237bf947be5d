package repro.core

import scala.collection.mutable.ArrayBuffer

/** SZ3-style linear error quantizer (Step 3 of the HPEZ pipeline, Fig. 1).
  *
  * For a value x with prediction p, the signed quantization index is
  * q = round((x - p) / (2e)); reconstruction is p + 2qe, which is within
  * the absolute bound e of x. Codes are shifted by `radius` so Huffman
  * sees non-negative symbols; code 0 is the escape for unpredictable
  * points, whose exact (float32) values are stored in a side list.
  *
  * Compression must continue predicting from RECONSTRUCTED values so that
  * decompression replays identically — [[quantize]] therefore returns the
  * reconstruction for the caller to write back into the working grid.
  */
final class LinearQuantizer(val eb: Double, val radius: Int = 32768) {
  require(eb > 0, s"error bound must be positive: $eb")

  val codes: ArrayBuffer[Int] = ArrayBuffer.empty[Int]
  val outliers: ArrayBuffer[Double] = ArrayBuffer.empty[Double]

  /** Quantizes (value, prediction); records the code; returns the
    * reconstructed value the decompressor will produce.
    */
  def quantize(value: Double, pred: Double): Double = {
    val code = LinearQuantizer.code(value, pred, eb, radius)
    codes += code
    if (code != 0) LinearQuantizer.reconstruct(code, pred, eb, radius)
    else {
      val v = LinearQuantizer.escaped(value)
      outliers += v
      v
    }
  }

  def codesArray: Array[Int] = codes.toArray
  def outliersArray: Array[Double] = outliers.toArray
}

/** The quantizer's formulas, for sweeps that keep their codes in arrays of
  * their own.
  */
object LinearQuantizer {

  /** The code of `value` predicted as `pred`: the quantization index
    * shifted by `radius`, or 0 (escape) when the index is out of range or
    * fp rounding at a bin edge would put the reconstruction outside the
    * bound.
    */
  def code(value: Double, pred: Double, eb: Double, radius: Int): Int = {
    val twoEb = 2 * eb
    val q = math.rint((value - pred) / twoEb)
    if (math.abs(q) < radius - 1 && math.abs(pred + q * twoEb - value) <= eb) q.toInt + radius else 0
  }

  /** The reconstruction of a non-escape `code` predicted as `pred`. */
  def reconstruct(code: Int, pred: Double, eb: Double, radius: Int): Double =
    pred + (code - radius).toDouble * (2 * eb)

  /** The stored (and reconstructed) value of an escaped point; float32
    * storage is exact for our inputs (see GridData doc).
    */
  def escaped(value: Double): Double = value.toFloat.toDouble
}

/** Decompression-side mirror: replays codes/outliers in the identical order. */
final class LinearDequantizer(val eb: Double, val radius: Int,
                              codes: Array[Int], outliers: Array[Double]) {
  private var ci = 0
  private var oi = 0

  /** Reconstructs the next value given its prediction. */
  def next(pred: Double): Double = {
    val code = codes(ci); ci += 1
    if (code == 0) { val v = outliers(oi); oi += 1; v }
    else LinearQuantizer.reconstruct(code, pred, eb, radius)
  }

  def consumedCodes: Int = ci
}
