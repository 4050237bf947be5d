package perfbench

import repro.core.GridData

/** The benchmark's own check of the error-bound contract (Eq. 1). It
  * rejects NaN and infinities, which `Metrics.maxAbsError` lets through.
  */
object Verify {

  /** None when `recon` has `orig`'s dims and every point is finite and
    * within `absEb` of the original; otherwise the first violation.
    */
  def check(orig: GridData, recon: GridData, absEb: Double): Option[String] = {
    if (!java.util.Arrays.equals(orig.dims, recon.dims))
      return Some(s"dims ${recon.dims.mkString("x")} != ${orig.dims.mkString("x")}")
    val a = orig.data
    val b = recon.data
    var i = 0
    while (i < a.length) {
      val err = math.abs(a(i) - b(i))
      if (!java.lang.Double.isFinite(b(i)) || !(err <= absEb))
        return Some(s"point $i: ${b(i)} vs ${a(i)} (error $err, bound $absEb)")
      i += 1
    }
    None
  }
}
