package repro.core

/** Common interface implemented by HPEZ and every baseline compressor in
  * this reproduction (SZ3-like, QoZ-like, ZFP-like, SPERR-like, FAZ-like,
  * TTHRESH-like).
  *
  * The contract is the paper's Eq. 1: given an absolute error bound e,
  * every point of `decompress(compress(g, e))` is within e of the
  * original. Compressed streams are self-describing (dims are embedded)
  * so they can be shipped through the Spark layer as opaque binary
  * columns.
  */
trait Compressor extends Serializable {
  /** Short display name used in benchmark tables (e.g. "HPEZ"). */
  def name: String

  /** Compresses `grid` under the absolute point-wise bound `absEb`. */
  def compress(grid: GridData, absEb: Double): Array[Byte]

  /** Inverse of [[compress]]. */
  def decompress(bytes: Array[Byte]): GridData
}

object Compressor {
  /** Converts the paper's value-range-based bound ε into the absolute
    * bound e = ε · (max − min) (Section 7.1.3). Constant fields get a
    * tiny positive bound so quantizers stay well-defined.
    */
  def absoluteBound(grid: GridData, valueRangeEb: Double): Double =
    absoluteBound(grid.valueRange, valueRangeEb)

  /** [[absoluteBound]] for a field whose value range (max − min) is `range`. */
  def absoluteBound(range: Double, valueRangeEb: Double): Double =
    if (range > 0) valueRangeEb * range else math.max(1e-10, valueRangeEb)
}
