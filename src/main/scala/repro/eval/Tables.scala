package repro.eval

import repro.data.SciData
import repro.sparklayer.TransferSim

/** Renders each paper table with our measured numbers next to the
  * published ones. The bench suites (bench/src/test) call these, print
  * the output to the console of `sbt "bench/test"`, and assert the shape
  * properties the paper claims; EXPERIMENTS.md records the comparison.
  */
object Tables {

  private val HighPerf = Seq("SZ 3.1", "ZFP 0.5.5", "QoZ 1.1", "HPEZ")
  private val HighRatio = Seq("SPERR 0.6", "FAZ", "TTHRESH", "HPEZ")

  /** Table 1: dataset inventory (paper dims vs our scaled dims). */
  def table1(shrink: Double = 1.0): String = {
    val sb = new StringBuilder
    sb ++= "TABLE 1 -- datasets (paper dims -> our synthetic dims, DESIGN.md sec 3)\n"
    sb ++= f"${"dataset"}%-10s ${"paper dims"}%-16s ${"our dims"}%-14s ${"#fields"}%-8s ${"type"}%-8s ${"our MB (fp32)"}%s\n"
    for (d <- SciData.floatDatasets ++ SciData.intDatasets) {
      val fs = SciData.fields(d, shrink)
      val mb = fs.map(_.rawBytes).sum / 1e6
      sb ++= f"$d%-10s ${PaperNumbers.table1Dims(d)}%-16s ${fs.head.dims.mkString("x")}%-14s ${fs.size}%-8d ${if (fs.head.isInteger) "int" else "float"}%-8s $mb%.1f\n"
    }
    sb.result()
  }

  /** Table 2: compression/decompression speeds at ε=1e-3. */
  def table2(shrink: Double = 1.0): String = {
    val sb = new StringBuilder
    val eps = 1e-3
    sb ++= "TABLE 2 -- execution speeds (MB/s, fp32 accounting) at eps=1e-3\n"
    sb ++= "rows: measured | paper, columns: " + Eval.CompressorNames.mkString(", ") + "\n"
    for (kind <- Seq("Compression", "Decompression")) {
      sb ++= s"-- $kind\n"
      for (d <- SciData.floatDatasets) {
        val ours = Eval.CompressorNames.map { c =>
          val r = Eval.run(d, c, eps, shrink)
          if (kind == "Compression") r.compMBps else r.decompMBps
        }
        val paper = if (kind == "Compression") PaperNumbers.table2Comp(d) else PaperNumbers.table2Decomp(d)
        sb ++= f"$d%-8s ours : ${ours.map(v => f"$v%8.1f").mkString(" ")}\n"
        sb ++= f"$d%-8s paper: ${paper.map(v => f"$v%8.1f").mkString(" ")}\n"
      }
    }
    sb.result()
  }

  /** Table 3: CR of the high-performance compressors at 3 error bounds. */
  def table3(shrink: Double = 1.0): String = {
    val sb = new StringBuilder
    sb ++= "TABLE 3 -- compression ratios, high-performance compressors\n"
    sb ++= "columns: " + HighPerf.mkString(", ") + ", improvement of HPEZ over best other (%)\n"
    for (d <- Seq("RTM", "Miranda", "SegSalt", "SCALE", "JHTDB", "CESM"); eps <- Seq(1e-2, 1e-3, 1e-4)) {
      val crs = HighPerf.map(c => Eval.run(d, c, eps, shrink).cr)
      val others = crs.init
      val improve = (crs.last / others.max - 1) * 100
      val p = PaperNumbers.table3((d, eps))
      sb ++= f"$d%-8s eps=$eps%6.0e ours : ${crs.map(v => f"$v%8.1f").mkString(" ")}  improve=$improve%6.1f%%\n"
      sb ++= f"$d%-8s eps=$eps%6.0e paper: ${Seq(p._1, p._2, p._3, p._4).map(v => f"$v%8.1f").mkString(" ")}  improve=${p._5}%6.1f%%\n"
    }
    sb.result()
  }

  /** Table 4: CR of HPEZ vs the high-ratio compressors. */
  def table4(shrink: Double = 1.0): String = {
    val sb = new StringBuilder
    sb ++= "TABLE 4 -- compression ratios, HPEZ vs high-ratio compressors\n"
    sb ++= "columns: " + HighRatio.mkString(", ") + "\n"
    for (d <- Seq("RTM", "Miranda", "SegSalt", "SCALE", "JHTDB", "CESM"); eps <- Seq(1e-2, 1e-3, 1e-4)) {
      val crs = HighRatio.map(c => Eval.run(d, c, eps, shrink).cr)
      val p = PaperNumbers.table4((d, eps))
      sb ++= f"$d%-8s eps=$eps%6.0e ours : ${crs.map(v => f"$v%8.1f").mkString(" ")}\n"
      sb ++= f"$d%-8s eps=$eps%6.0e paper: ${Seq(p._1, p._2, p._3, p._4).map(v => f"$v%8.1f").mkString(" ")}\n"
    }
    sb.result()
  }

  /** Machine-speed normalization for the Table-5 model: our single-core
    * JVM compressors run several times slower than the paper's C++ codes
    * on Anvil, which would shift the model's balance from the paper's
    * transfer-dominated regime to a compute-dominated one. Dividing the
    * link speed by the same slowdown factor (median paper compression
    * speed / median measured compression speed at ε=1e-3) restores the
    * paper's compute-to-transfer balance; see EXPERIMENTS.md.
    */
  def machineSlowdown(shrink: Double = 1.0): Double = {
    val paper = SciData.floatDatasets.flatMap(PaperNumbers.table2Comp(_)).sorted
    val ours = (for (d <- SciData.floatDatasets; c <- Eval.CompressorNames)
      yield Eval.run(d, c, 1e-3, shrink).compMBps).sorted
    val f = paper(paper.size / 2) / ours(ours.size / 2)
    math.max(1.0, f)
  }

  /** Per-compressor model times for one dataset/direction (shared with the
    * bench assertions).
    */
  def table5Times(d: String, linkGBps: Double, p: Int, shrink: Double): Map[String, Double] =
    Eval.CompressorNames.map { c =>
      val r = Eval.atPsnr(d, c, 80.0, shrink)
      c -> TransferSim.timeSeconds(
        TransferSim.Measured(r.rawBytes, r.compressedBytes, r.compMBps, r.decompMBps),
        p, linkGBps)
    }.toMap

  /** Table 5: modeled parallel transfer times at PSNR=80 (p=2048 cores).
    * Link speeds are the paper's two directions divided by the machine
    * slowdown factor.
    */
  def table5(shrink: Double = 1.0, p: Int = 2048): String = {
    val sb = new StringBuilder
    val slow = machineSlowdown(shrink)
    sb ++= s"TABLE 5 -- parallel data transfer time model (s), p=$p cores, PSNR=80\n"
    sb ++= f"machine slowdown factor vs paper testbed: $slow%.2f (link speeds scaled accordingly)\n"
    sb ++= "columns: " + Eval.CompressorNames.mkString(", ") + ", HPEZ improvement over best other (%)\n"
    for ((dir, paperLink, paperTab) <- Seq(
      ("Anvil->Bebop", 0.85, PaperNumbers.table5AtoB),
      ("Bebop->Anvil", 1.05, PaperNumbers.table5BtoA))) {
      val linkGBps = paperLink / slow
      sb ++= f"-- $dir (paper link $paperLink GB/s -> ours $linkGBps%.3f GB/s)\n"
      for (d <- SciData.floatDatasets) {
        val byName = table5Times(d, linkGBps, p, shrink)
        val times = Eval.CompressorNames.map(byName)
        val others = times.init
        val improve = (1 - times.last / others.min) * 100
        val paper = paperTab(d)
        sb ++= f"$d%-8s ours : ${times.map(v => f"$v%8.1f").mkString(" ")}  improve=$improve%6.1f%%\n"
        sb ++= f"$d%-8s paper: ${paper.init.map(v => f"$v%8.1f").mkString(" ")}  improve=${paper.last}%6.1f%%\n"
      }
    }
    sb.result()
  }

  /** Table 6: interpolation-stage speeds with and without fast-varying-
    * first traversal. The SAME tuned plan is run with only the FVFI flag
    * flipped, isolating the traversal-order effect exactly as the paper's
    * ablation does (speeds are for the prediction+quantization stage that
    * FVFI accelerates; entropy coding is order-independent).
    */
  def table6(shrink: Double = 1.0): String = {
    val sb = new StringBuilder
    sb ++= "TABLE 6 -- HPEZ interpolation-stage speeds (MB/s) with / without fast-varying-first traversal, eps=1e-3\n"
    sb ++= f"${"dataset"}%-8s ${"cmp w/o"}%9s ${"cmp"}%9s ${"dcmp w/o"}%9s ${"dcmp"}%9s   (paper: cmp w/o, cmp, dcmp w/o, dcmp)\n"
    for (d <- SciData.floatDatasets) {
      val (cn, cy, dn, dy) = fvfiSpeeds(d, 1e-3, shrink)
      val p = PaperNumbers.table6(d)
      sb ++= f"$d%-8s $cn%9.1f $cy%9.1f $dn%9.1f $dy%9.1f   (${p._1}%.0f, ${p._2}%.0f, ${p._3}%.0f, ${p._4}%.0f)\n"
    }
    sb.result()
  }

  private val fvfiCache =
    scala.collection.mutable.Map.empty[(String, Double, Double), (Double, Double, Double, Double)]

  /** Measures (compNoFvfi, compFvfi, decompNoFvfi, decompFvfi) MB/s of the
    * interpolation engine under one tuned plan. Memoized so the bench
    * assertion sees the same numbers the printed table shows.
    */
  def fvfiSpeeds(dataset: String, eps: Double, shrink: Double): (Double, Double, Double, Double) =
    fvfiCache.getOrElseUpdate((dataset, eps, shrink), fvfiSpeedsUncached(dataset, eps, shrink))

  private def fvfiSpeedsUncached(dataset: String, eps: Double, shrink: Double): (Double, Double, Double, Double) = {
    import repro.core._
    import repro.core.interp._
    import repro.core.tuning.AutoTuner
    val (ref, grid) = Eval.datasetGrids(dataset, shrink).head
    val absEb = Compressor.absoluteBound(grid, eps)
    val tuned = AutoTuner.tune(grid, absEb,
      AutoTuner.Features.hpez.copy(allowLorenzo = false), AutoTuner.Target.CR)
    val mb = ref.rawBytes / 1e6
    def measure(fvfi: Boolean): (Double, Double) = {
      val plan = tuned.plan.copy(fvfi = fvfi)
      var bestC = 0.0
      var bestD = 0.0
      for (_ <- 0 until 3) { // repeat; first iteration warms the JIT
        val work = grid.copyGrid
        val t0 = System.nanoTime()
        val res = LevelInterp.compressWith(work, plan)
        val t1 = System.nanoTime()
        LevelInterp.decompressWith(plan, res.codes, res.outliers, res.anchors)
        val t2 = System.nanoTime()
        bestC = math.max(bestC, mb / ((t1 - t0) / 1e9))
        bestD = math.max(bestD, mb / ((t2 - t1) / 1e9))
      }
      (bestC, bestD)
    }
    val (cn, dn) = measure(fvfi = false)
    val (cy, dy) = measure(fvfi = true)
    (cn, cy, dn, dy)
  }
}
