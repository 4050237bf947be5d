package repro.core

/** Quality metrics used by the paper's evaluation (Section 7.1.3):
  * PSNR (value-range based) and windowed SSIM, plus the max point-wise
  * error used to verify the error-bound contract.
  */
object Metrics {

  /** Mean squared error between two equal-size arrays. */
  def mse(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"length mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s / a.length
  }

  /** Max absolute point-wise error — must be <= the absolute error bound.
    * NaN as soon as either side holds a NaN, so a `<= bound` check fails
    * on it; equal values (also equal infinities) count as no error.
    */
  def maxAbsError(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length)
    var m = 0.0; var i = 0
    while (i < a.length) {
      if (a(i) != b(i)) {
        val d = math.abs(a(i) - b(i))
        if (d.isNaN) return Double.NaN
        if (d > m) m = d
      }
      i += 1
    }
    m
  }

  /** Value-range PSNR in dB: 20*log10(range) - 10*log10(mse).
    * Infinity for a perfect reconstruction.
    */
  def psnr(orig: GridData, recon: GridData): Double = {
    val range = orig.valueRange
    val m = mse(orig.data, recon.data)
    if (m == 0.0) Double.PositiveInfinity
    else 20 * math.log10(if (range > 0) range else 1.0) - 10 * math.log10(m)
  }

  /** Windowed mean SSIM with standard constants (K1=0.01, K2=0.03) over
    * non-overlapping windows of side `win` per dimension (paper Fig. 12
    * uses SSIM as its second quality metric).
    */
  def ssim(orig: GridData, recon: GridData, win: Int = 8): Double = {
    require(java.util.Arrays.equals(orig.dims, recon.dims), "dims mismatch")
    val range = orig.valueRange
    val l = if (range > 0) range else 1.0
    val c1 = math.pow(0.01 * l, 2)
    val c2 = math.pow(0.03 * l, 2)
    val nd = orig.ndim
    val nWin = orig.dims.map(d => math.max(1, d / win))
    val total = nWin.product
    var sum = 0.0
    val wc = new Array[Int](nd)     // window coordinates
    val origin = new Array[Int](nd)
    val ext = new Array[Int](nd)
    var w = 0
    while (w < total) {
      var rem = w; var i = 0
      while (i < nd) {
        val st = nWin.drop(i + 1).product
        wc(i) = rem / st; rem %= st
        origin(i) = wc(i) * win
        ext(i) = math.min(win, orig.dims(i) - origin(i))
        i += 1
      }
      val a = orig.slice(origin, ext).data
      val b = recon.slice(origin, ext).data
      val n = a.length
      var ma = 0.0; var mb = 0.0
      var k = 0
      while (k < n) { ma += a(k); mb += b(k); k += 1 }
      ma /= n; mb /= n
      var va = 0.0; var vb = 0.0; var cov = 0.0
      k = 0
      while (k < n) {
        val da = a(k) - ma; val db = b(k) - mb
        va += da * da; vb += db * db; cov += da * db
        k += 1
      }
      va /= n; vb /= n; cov /= n
      sum += ((2 * ma * mb + c1) * (2 * cov + c2)) / ((ma * ma + mb * mb + c1) * (va + vb + c2))
      w += 1
    }
    sum / total
  }

  /** Bit rate in bits per point, accounting original values as float32
    * (the paper's datasets are fp32; CR and bit rate use 32 bits/value).
    */
  def bitRate(compressedBytes: Long, points: Long): Double =
    compressedBytes.toDouble * 8 / points

  /** Compression ratio against fp32 originals. */
  def compressionRatio(compressedBytes: Long, points: Long): Double =
    points.toDouble * 4 / compressedBytes
}
