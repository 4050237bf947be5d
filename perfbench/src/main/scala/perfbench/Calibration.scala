package perfbench

/** Machine-speed reference. On a shared host the speed of a core drifts,
  * by up to 1.6x over minutes, with whatever else runs there. Each timed
  * operation is paired with a run of this fixed kernel just before it, on
  * as many threads as the operation uses, and the end-to-end times are
  * reported in reference time: wall time scaled to a host on which the
  * kernel takes [[NominalNs]]. A change to the program moves reference time
  * as it moves wall time; drift of the host moves both the operation and
  * the kernel, and cancels.
  */
object Calibration {
  val NominalNs: Double = 6e6

  private val sweep = Array.tabulate(1 << 21)(i => math.sin(i * 1e-3))
  private val table = Array.tabulate(1 << 20)(i => i * 2654435761L)
  @volatile private var sink = 0.0

  private lazy val pool = java.util.concurrent.Executors.newCachedThreadPool { r =>
    val t = new Thread(r, "calibration"); t.setDaemon(true); t
  }

  /** Wall time of one run of the kernel on each of `threads` threads at
    * once.
    */
  def sampleNs(threads: Int): Long = {
    val t0 = System.nanoTime()
    if (threads == 1) kernel()
    else (1 to threads).map(_ => pool.submit[Unit](() => kernel())).foreach(_.get())
    System.nanoTime() - t0
  }

  /** About the mix of the codec's stages: a stencil sweep over a 16 MB
    * array and random reads from an 8 MB table.
    */
  private def kernel(): Unit = {
    var acc = 0.0
    var i = 1
    while (i < sweep.length - 1) { acc += 0.5 * (sweep(i - 1) + sweep(i + 1)) - 0.999 * sweep(i); i += 1 }
    var z = 1L
    var k = 0
    while (k < 300000) {
      z = z * 6364136223846793005L + 1442695040888963407L
      acc += table(((z >>> 33) & (table.length - 1)).toInt)
      k += 1
    }
    sink = acc
  }
}
