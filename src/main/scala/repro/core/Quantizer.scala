package repro.core

/** SZ3-style linear error quantizer (Step 3 of the HPEZ pipeline, Fig. 1).
  *
  * For a value x with prediction p, the signed quantization index is
  * q = round((x - p) / (2e)); reconstruction is p + 2qe, which is within
  * the absolute bound e of x. Codes are shifted by [[Radius]] so Huffman
  * sees non-negative symbols; code 0 is the escape for unpredictable
  * points, whose exact values are stored as side values.
  *
  * This object owns the code space and the precision of side values (the
  * outliers and the interpolation anchors): every predictor quantizes,
  * rounds and stores them through it.
  *
  * Compression must continue predicting from RECONSTRUCTED values so that
  * decompression replays identically: the interpolation traversal and the
  * Lorenzo sweep write [[reconstruct]] (or [[escaped]]) back into their
  * working grids.
  */
object LinearQuantizer {

  /** Code of a zero quantization index; indices within ±(Radius − 2) are coded. */
  final val Radius = 32768

  /** Estimated bits of one stored side value (fp32). */
  final val SideValueBits = 32.0

  /** The code of `value` predicted as `pred`: the quantization index
    * shifted by [[Radius]], or 0 (escape) when the index is out of range or
    * fp rounding at a bin edge would put the reconstruction outside the
    * bound.
    */
  def code(value: Double, pred: Double, eb: Double): Int = {
    val twoEb = 2 * eb
    val q = math.rint((value - pred) / twoEb)
    if (math.abs(q) < Radius - 1 && math.abs(pred + q * twoEb - value) <= eb) q.toInt + Radius else 0
  }

  /** The reconstruction of a non-escape `code` predicted as `pred`. */
  def reconstruct(code: Int, pred: Double, eb: Double): Double =
    pred + (code - Radius).toDouble * (2 * eb)

  /** The stored (and reconstructed) value of a side value; float32
    * storage is exact for our inputs (see GridData doc).
    */
  def escaped(value: Double): Double = value.toFloat.toDouble

  /** Writes side values, each already rounded by [[escaped]]. */
  def writeSideValues(w: ByteWriter, values: Array[Double]): Unit = {
    w.writeVarInt(values.length.toLong)
    values.foreach(v => w.writeFloat(v.toFloat))
  }

  /** Inverse of [[writeSideValues]]. */
  def readSideValues(r: ByteReader): Array[Double] = Array.fill(r.readVarInt().toInt)(r.readFloat().toDouble)

  /** Tuning-trial size estimate of the first `n` of `codes`: the codes
    * through the real entropy stage (Huffman + Zstd) plus 36 bits per
    * outlier. Shannon entropy misranks configurations because it ignores
    * both the Huffman table and Zstd's gains on concentrated streams.
    */
  def payloadBits(codes: Array[Int], n: Int, nOutliers: Int): Double =
    (if (n == 0) 0.0 else Lossless.compress(Huffman.encode(codes, n)).length * 8.0) + 36.0 * nOutliers
}
