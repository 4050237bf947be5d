package repro.core.tuning

import repro.core.GridData
import repro.core.interp.Spline

/** Data sampling and statistical analysis (Section 6.1).
  *
  * Uniformly samples ~`sampleRate` of the input points and measures the
  * 1-D interpolation MSE along every dimension (linear and cubic). The
  * per-dimension MSEs estimate the interpolation error variances σ_i²
  * used for the multi-dimensional combination weights (Eq. 12) and
  * identify the most non-smooth dimension for dynamic dimension freezing
  * (Section 6.3).
  */
object Sampling {

  /** Per-dimension interpolation error statistics.
    *
    * @param sigma2       σ_i² estimate per dimension: min(linear, cubic) MSE
    * @param dimWeights   normalized 1/σ_i² weights (Eq. 12)
    * @param roughestDim  argmax σ_i² — the dimension-freezing candidate
    */
  final case class DimStats(linearMse: Array[Double], cubicMse: Array[Double]) {
    val sigma2: Array[Double] =
      linearMse.indices.map(i => math.max(1e-30, math.min(linearMse(i), cubicMse(i)))).toArray
    val dimWeights: Array[Double] = {
      val inv = sigma2.map(1.0 / _)
      val s = inv.sum
      inv.map(_ / s)
    }
    val roughestDim: Int = sigma2.indices.maxBy(sigma2)
  }

  /** Default sampling rate from the paper (0.2%). */
  val DefaultSampleRate: Double = 0.002

  def dimStats(grid: GridData, sampleRate: Double = DefaultSampleRate): DimStats = {
    val nd = grid.ndim
    val n = grid.size
    val target = math.max(64, (n * sampleRate).toInt)
    // Uniform lattice with roughly `target` interior points.
    val step = math.max(1, math.pow(n.toDouble / target, 1.0 / nd).toInt)
    val sumSqLin = new Array[Double](nd)
    val sumSqCub = new Array[Double](nd)
    val cnt = new Array[Long](nd)
    val coords = new Array[Int](nd)
    // iterate lattice points with margin 3 on both sides
    def rec(d: Int): Unit = {
      if (d == nd) {
        val idx = grid.index(coords)
        var k = 0
        while (k < nd) {
          val st = grid.strides(k)
          val v = grid.data(idx)
          val lin = Spline.linear(grid.data(idx - st), grid.data(idx + st))
          val cub = Spline.notAKnot(grid.data(idx - 3 * st), grid.data(idx - st),
            grid.data(idx + st), grid.data(idx + 3 * st))
          sumSqLin(k) += (v - lin) * (v - lin)
          sumSqCub(k) += (v - cub) * (v - cub)
          cnt(k) += 1
          k += 1
        }
      } else {
        var c = 3
        while (c < grid.dims(d) - 3) { coords(d) = c; rec(d + 1); c += step }
      }
    }
    if (grid.dims.forall(_ > 6)) rec(0)
    val lin = Array.tabulate(nd)(k => if (cnt(k) == 0) 1e-30 else sumSqLin(k) / cnt(k))
    val cub = Array.tabulate(nd)(k => if (cnt(k) == 0) 1e-30 else sumSqCub(k) / cnt(k))
    DimStats(lin, cub)
  }

  /** Side of the sample block that the tuning trials run on. */
  final val BlockSide = 32

  /** The block the tuning trials compress (the QoZ/HPEZ tuning substrate):
    * extents min([[BlockSide]], d), centered in the grid.
    */
  def sampleBlock(grid: GridData): GridData = {
    val ext = grid.dims.map(d => math.min(BlockSide, d))
    grid.slice(Array.tabulate(grid.ndim)(k => (grid.dims(k) - ext(k)) / 2), ext)
  }
}
