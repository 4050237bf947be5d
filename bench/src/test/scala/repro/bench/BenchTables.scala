package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SciData
import repro.eval.{Eval, Tables}

/** Benchmark scale: full synthetic dataset dims (DESIGN.md §3). */
object BenchScale {
  val shrink: Double = sys.env.getOrElse("BENCH_SHRINK", "1.0").toDouble
}

/** Table 1 — dataset inventory (paper vs our synthetic substitutes). */
class BenchTable1 extends AnyFunSuite {
  test("table 1: dataset inventory") {
    val out = Tables.table1(BenchScale.shrink)
    println(out)
    // every paper dataset is represented
    (SciData.floatDatasets ++ SciData.intDatasets).foreach(d => assert(out.contains(d)))
  }
}

/** Table 2 — sequential compression/decompression speeds at ε=1e-3.
  * Shape claims: the prediction-based high-performance compressors are
  * several times faster than TTHRESH; HPEZ stays in the high-performance
  * class (well above TTHRESH and above the hybrid FAZ on most datasets).
  */
class BenchTable2 extends AnyFunSuite {
  test("table 2: execution speeds") {
    println(Tables.table2(BenchScale.shrink))
    var hpezBeatsFaz = 0
    for (d <- SciData.floatDatasets) {
      val hpez = Eval.run(d, "HPEZ", 1e-3, BenchScale.shrink)
      val tth = Eval.run(d, "TTHRESH", 1e-3, BenchScale.shrink)
      val faz = Eval.run(d, "FAZ", 1e-3, BenchScale.shrink)
      assert(hpez.compMBps > 2 * tth.compMBps,
        s"$d: HPEZ (${hpez.compMBps}) should be >2x TTHRESH (${tth.compMBps})")
      if (hpez.compMBps > faz.compMBps) hpezBeatsFaz += 1
    }
    assert(hpezBeatsFaz >= 4, s"HPEZ should out-speed FAZ on most datasets ($hpezBeatsFaz/6)")
  }
}

/** Table 3 — CR of high-performance compressors under the same ε.
  * Shape claim (paper): HPEZ achieves the best CR in all cells; ZFP is
  * far below the prediction-based compressors.
  */
class BenchTable3 extends AnyFunSuite {
  test("table 3: high-performance compression ratios") {
    println(Tables.table3(BenchScale.shrink))
    var hpezBest = 0
    var cells = 0
    for (d <- SciData.floatDatasets; eps <- Seq(1e-2, 1e-3, 1e-4)) {
      val crs = Seq("SZ 3.1", "ZFP 0.5.5", "QoZ 1.1", "HPEZ")
        .map(c => c -> Eval.run(d, c, eps, BenchScale.shrink).cr).toMap
      cells += 1
      if (crs("HPEZ") >= crs.view.filterKeys(_ != "HPEZ").values.max) hpezBest += 1
      assert(crs("HPEZ") >= 0.95 * crs.view.filterKeys(_ != "HPEZ").values.max,
        s"$d eps=$eps: HPEZ ${crs("HPEZ")} should not lose to ${crs}")
      assert(crs("ZFP 0.5.5") < crs("HPEZ"),
        s"$d eps=$eps: ZFP should trail the prediction-based compressors")
    }
    assert(hpezBest >= cells - 3, s"HPEZ should win nearly all cells ($hpezBest/$cells)")
  }
}

/** Table 4 — CR of HPEZ vs high-ratio compressors under the same ε.
  * Shape claim (paper): HPEZ can beat the high-ratio compressors in
  * several cases (e.g. SCALE-LetKF, JHTDB) while being several times
  * faster.
  */
class BenchTable4 extends AnyFunSuite {
  test("table 4: HPEZ vs high-ratio compressors") {
    println(Tables.table4(BenchScale.shrink))
    for (d <- Seq("SCALE", "JHTDB")) {
      val hpez = Eval.run(d, "HPEZ", 1e-3, BenchScale.shrink).cr
      val sperr = Eval.run(d, "SPERR 0.6", 1e-3, BenchScale.shrink).cr
      val tth = Eval.run(d, "TTHRESH", 1e-3, BenchScale.shrink).cr
      assert(hpez > sperr, s"$d: HPEZ ($hpez) should beat SPERR ($sperr) per Table 4")
      assert(hpez > tth, s"$d: HPEZ ($hpez) should beat TTHRESH ($tth) per Table 4")
    }
  }
}

/** Table 5 — modeled parallel transfer times (p=2048, PSNR=80), per the
  * paper's §7.2.4 approximation. Shape claim: HPEZ minimizes the total
  * transfer time on most datasets. Also validates the distributed Spark
  * path agrees with the sequential measurements.
  */
class BenchTable5 extends repro.SparkSpec {
  test("table 5: parallel data transfer model") {
    println(Tables.table5(BenchScale.shrink))
    val slow = Tables.machineSlowdown(BenchScale.shrink)
    for ((dir, paperLink) <- Seq(("A->B", 0.85), ("B->A", 1.05))) {
      var wins = 0
      for (d <- SciData.floatDatasets) {
        val times = Tables.table5Times(d, paperLink / slow, 2048, BenchScale.shrink)
        // "win" = strictly best, or within 10% of the best (the paper's
        // RTM row shows HPEZ slightly behind QoZ too)
        if (times("HPEZ") <= times.view.filterKeys(_ != "HPEZ").values.min * 1.1) wins += 1
      }
      assert(wins >= 4, s"$dir: HPEZ should lead or tie the transfer model on most datasets ($wins/6)")
    }
  }

  test("table 5 substrate: distributed Spark compression matches sequential CR") {
    import repro.sparklayer._
    val ref = SciData.fields("Miranda", BenchScale.shrink).head
    val grid = SciData.generate(ref)
    val absEb = repro.core.Compressor.absoluteBound(grid, 1e-3)
    val codec = Eval.compressor("HPEZ")
    val blocks = BlockStore.blocksDS(spark, ref)
    val compressed = CompressorUdf.compressBlocks(blocks, codec, absEb)
    val totalBytes = compressed.collect().map(_.bytes.length.toLong).sum
    val parallelCr = ref.rawBytes.toDouble / totalBytes
    val seqCr = Eval.run("Miranda", "HPEZ", 1e-3, BenchScale.shrink).cr
    // block-wise compression loses some ratio to per-block headers/anchors,
    // but must stay in the same class
    assert(parallelCr > seqCr * 0.4,
      s"distributed CR $parallelCr too far below sequential $seqCr")
    println(f"Spark-parallel HPEZ on ${ref.dataset}: CR(parallel 64^3 blocks)=$parallelCr%.1f vs CR(sequential)=$seqCr%.1f")
  }
}

/** Table 6 — fast-varying-first interpolation ablation. Shape claim:
  * FVFI does not hurt and generally accelerates both directions.
  */
class BenchTable6 extends AnyFunSuite {
  test("table 6: fast-varying-first interpolation speeds") {
    println(Tables.table6(BenchScale.shrink))
    var fasterComp = 0
    for (d <- SciData.floatDatasets) {
      val (cn, cy, _, _) = Tables.fvfiSpeeds(d, 1e-3, BenchScale.shrink)
      if (cy >= cn) fasterComp += 1
      assert(cy > 0.8 * cn, s"$d: FVFI must not slow the traversal down ($cy vs $cn)")
    }
    assert(fasterComp >= 3, s"FVFI should help on several datasets ($fasterComp/6)")
  }

  test("table 6 companion: the full HPEZ pipeline keeps its ratio without FVFI") {
    for (d <- Seq("CESM", "JHTDB")) {
      val no = Eval.run(d, "HPEZ (w/o FVFI)", 1e-3, BenchScale.shrink)
      val yes = Eval.run(d, "HPEZ", 1e-3, BenchScale.shrink)
      // per-point predictions are order-independent; only tuner feedback
      // through the Zstd-aware estimates may drift the plan slightly
      assert(math.abs(yes.cr - no.cr) / no.cr < 0.25,
        s"$d: FVFI should barely change the compression ratio (${yes.cr} vs ${no.cr})")
    }
  }
}
