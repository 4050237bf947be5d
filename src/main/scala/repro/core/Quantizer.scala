package repro.core

/** SZ3-style linear error quantizer (Step 3 of the HPEZ pipeline, Fig. 1).
  *
  * For a value x with prediction p, the signed quantization index is
  * q = round((x - p) / (2e)); reconstruction is p + 2qe, which is within
  * the absolute bound e of x. Codes are shifted by `radius` so Huffman
  * sees non-negative symbols; code 0 is the escape for unpredictable
  * points, whose exact (float32) values are stored in a side list.
  *
  * Compression must continue predicting from RECONSTRUCTED values so that
  * decompression replays identically: the interpolation traversal and the
  * Lorenzo sweep write [[reconstruct]] (or [[escaped]]) back into their
  * working grids.
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

  /** Tuning-trial size estimate of a quantizer output: its codes through
    * the real entropy stage (Huffman + Zstd) plus 36 bits per outlier.
    * Shannon entropy misranks configurations because it ignores both the
    * Huffman table and Zstd's gains on concentrated streams.
    */
  def payloadBits(codes: Array[Int], nOutliers: Int): Double =
    (if (codes.isEmpty) 0.0 else Lossless.compress(Huffman.encode(codes)).length * 8.0) + 36.0 * nOutliers
}
