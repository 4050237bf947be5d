package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.Dataset
import repro.core.{Compressor, HPEZ}
import repro.sparklayer.{Block, BlockStore}

/** A benchmark workload: the value-range bounds ε each pass runs the
  * fields at, and the path it runs.
  */
final case class Workload(name: String, epsilons: Seq[Double], spark: Boolean)

/** HPEZ benchmark entry point.
  *
  * Usage: Main --workload <seq|spark-blocks> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  *
  * Every workload is a closed loop over the 12 float fields at one or more
  * bounds (one round trip in flight). With `--trace 0` it prints the end-to-end metrics;
  * with `--trace 1` it alternates plain passes with staged-replay passes
  * and prints the per-layer metrics. The last stdout line is the JSON
  * result.
  */
object Main {

  val Workloads: Seq[Workload] = Seq(
    Workload("seq", Seq(1e-3, 1e-5), spark = false),
    Workload("spark-blocks", Seq(1e-3), spark = true))

  /** Set-up is repeated this often; `setup_s` uses the median repetition. */
  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = Workloads.find(w => opts.get("workload").contains(w.name)).getOrElse {
      Console.err.println(s"usage: --workload <${Workloads.map(_.name).mkString("|")}> --seed <n> " +
        "--seconds <s> --trace <0|1> --work <dir>")
      sys.exit(2)
    }
    val result = run(workload, opts.getOrElse("seed", "0").toLong, opts.getOrElse("seconds", "10").toDouble,
      opts.getOrElse("trace", "0") == "1", new File(opts.getOrElse("work", "perfbench-work")))
    println(result)
  }

  /** Runs one workload and returns the JSON result line. */
  def run(w: Workload, seed: Long, seconds: Double, trace: Boolean, work: File,
          codec: Compressor = HPEZ()): String = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val slots = math.min(4, Runtime.getRuntime.availableProcessors)
    val refs = Inputs.refs(seed)
    val side = BlockStore.DefaultBlockSide
    val reps = new Array[Double](SetupReps)
    def timedMs[A](i: Int)(f: => A): A = { val t0 = System.nanoTime(); val r = f; reps(i) = (System.nanoTime() - t0) / 1e6; r }

    val runner: Runner =
      if (w.spark) {
        val spark = SparkRunner.session(slots, work)
        var blocks = Seq.empty[Dataset[Block]]
        for (i <- reps.indices) {
          blocks.foreach(_.unpersist(blocking = true))
          blocks = timedMs(i)(SparkRunner.cacheBlocks(spark, refs, side))
        }
        // The reference fields come from SciData.generate, independently of
        // the block path under test.
        val fields = Inputs.generate(refs, w.epsilons, slots)
        new SparkRunner(spark, fields, Seq.fill(w.epsilons.size)(blocks).flatten, new File(work, "parquet"), side, slots)
      } else {
        val fields = reps.indices.map(i => timedMs(i)(Inputs.generate(refs, w.epsilons, slots))).last
        new SeqRunner(fields)
      }
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3 - reps.sum / 1e3 + Stats.median(reps.toSeq) / 1e3

    try {
      var attempted = 0
      var failed = 0
      def pass(c: Compressor, keep: Boolean): Pass = {
        val p = runner.pass(c, keep)
        attempted += p.trips.size
        failed += p.trips.count(!_.ok)
        p
      }
      // Warm-up pass for the JIT and Spark's code generation, not timed. The
      // codec is deterministic, so the warm-up's output bytes give the ratio.
      val warmStart = System.nanoTime()
      val warmCounters = new StageCounters
      val warm = pass(runner.instrument(codec, warmCounters), keep = false)
      val ratio = warm.ok.map(_.rawBytes).sum.toDouble / warmCounters.value(Slot.CodecOutBytes)
      Console.err.println(f"[perfbench] setup reps ms=${reps.map(r => f"$r%.0f").mkString(",")} " +
        f"warm-up pass s=${(System.nanoTime() - warmStart) / 1e9}%.1f")

      val rawBytes = runner.fields.map(_.rawBytes).sum
      var fidelity = true
      val metrics: Seq[(String, Double, String)] =
        if (!trace) {
          val passes = Stats.loop(seconds)(pass(codec, keep = false))
          endToEnd(warm, ratio, passes, attempted, failed, setupS)
        } else {
          val pairs = Stats.loop(seconds) {
            val plain = pass(codec, keep = true)
            val c = new StageCounters
            val staged = pass(runner.instrument(new StagedHpez(c), c), keep = true)
            fidelity &= Fidelity.same(plain, staged)
            (plain, staged, c.value)
          }
          perLayer(w, pairs, slots, Stats.median(reps.toSeq))
        }
      Console.err.println(f"[perfbench] ${w.name} seed=$seed trace=$trace fields=${runner.fields.size} " +
        f"raw=${rawBytes / 1e6}%.1fMB attempted=$attempted failed=$failed setup_s=$setupS%.2f")
      Report.json(correct = failed == 0 && attempted > 0 && fidelity, attempted, failed, metrics)
    } finally runner.close()
  }

  /** Throughputs and set-up time are in reference time (see [[Calibration]]);
    * stderr shows the wall-clock figures next to them.
    */
  private def endToEnd(warm: Pass, ratio: Double, passes: Seq[Pass], attempted: Int, failed: Int,
                       setupS: Double): Seq[(String, Double, String)] = {
    val scale = Stats.median(passes.map(_.scale))
    Console.err.println(s"[perfbench] timed passes=${passes.size} operations per pass=${passes.head.trips.size} " +
      "MB/s comp/decomp per pass (reference time | wall time): " +
      passes.map(p => f"${p.compMBps}%.2f/${p.decompMBps}%.2f").mkString(" ") + " | " +
      passes.map(p => f"${p.rawMB / (p.compNs / 1e9)}%.2f/${p.rawMB / (p.decompNs / 1e9)}%.2f").mkString(" ") +
      f"; reference/wall time $scale%.3f")
    Seq(
      ("comp_MBps", Stats.median(passes.map(_.compMBps)), "MB/s"),
      ("decomp_MBps", Stats.median(passes.map(_.decompMBps)), "MB/s"),
      ("comp_MBps_p10", Stats.median(passes.map(p => Stats.quantile(p.tripCompMBps, 0.1))), "MB/s"),
      ("decomp_MBps_p10", Stats.median(passes.map(p => Stats.quantile(p.tripDecompMBps, 0.1))), "MB/s"),
      ("ratio", ratio, "x"),
      ("psnr_db", warm.ok.map(_.psnr).sum / warm.ok.size, "dB"),
      ("ok_frac", 1.0 - failed.toDouble / attempted, "frac"),
      ("setup_s", setupS * scale, "s"))
  }

  /** Per-layer figures of the staged passes, medians over the traced pairs.
    * Times are wall milliseconds per pass; `trace.overhead_frac` compares
    * staged with plain passes in reference time.
    */
  private def perLayer(w: Workload, pairs: Seq[(Pass, Pass, Array[Long])], slots: Int,
                       setupRepMs: Double): Seq[(String, Double, String)] = {
    Console.err.println(s"[perfbench] traced pairs=${pairs.size}")
    val perPass: Seq[Seq[(String, Double, String)]] = pairs.map { case (_, staged, c) =>
      def ms(slot: Int) = c(slot) / 1e6
      def n(slot: Int) = c(slot).toDouble
      // Compression wall time: the closed loop's own clock sequentially, the
      // codec busy time summed over tasks on Spark.
      val compMs = if (w.spark) ms(Slot.CodecCompNs) else staged.compNs / 1e6
      val stageMs = Slot.CompStages.map(ms).sum
      // The Spark layer's figures; the sequential paths do not run it.
      def sp(v: => Double) = if (w.spark) v else 0.0
      val wallMs = (staged.compNs + staged.decompNs) / 1e6
      val busyMs = ms(Slot.CodecCompNs) + ms(Slot.CodecDecompNs)
      Seq(
        ("tuning.tune_ms", ms(Slot.TuneNs), "ms"),
        ("tuning.share", ms(Slot.TuneNs) / compMs, "frac"),
        ("tuning.lorenzo_fields", n(Slot.LorenzoGrids), "count"),
        ("tuning.frozen_fields", n(Slot.FrozenGrids), "count"),
        ("tuning.blockwise_fields", n(Slot.BlockwiseGrids), "count"),
        ("tuning.est_bits_ratio", n(Slot.EstBits) / (8 * n(Slot.LosslessOutBytes)), "x"),
        ("interp.comp_ms", ms(Slot.InterpCompNs), "ms"),
        ("interp.decomp_ms", ms(Slot.InterpDecompNs), "ms"),
        ("interp.points", n(Slot.InterpPoints), "count"),
        ("interp.outliers", n(Slot.InterpOutliers), "count"),
        ("interp.anchors", n(Slot.InterpAnchors), "count"),
        ("interp.comp_ns_per_point", Stats.ratio(c(Slot.InterpCompNs), c(Slot.InterpPoints)), "ns"),
        ("interp.decomp_ns_per_point", Stats.ratio(c(Slot.InterpDecompNs), c(Slot.InterpPoints)), "ns"),
        ("lorenzo.comp_ms", ms(Slot.LorenzoCompNs), "ms"),
        ("lorenzo.decomp_ms", ms(Slot.LorenzoDecompNs), "ms"),
        ("lorenzo.points", n(Slot.LorenzoPoints), "count"),
        ("huffman.encode_ms", ms(Slot.HuffEncNs), "ms"),
        ("huffman.decode_ms", ms(Slot.HuffDecNs), "ms"),
        ("huffman.symbols", n(Slot.HuffSymbols), "count"),
        ("huffman.bytes", n(Slot.HuffBytes), "B"),
        ("lossless.comp_ms", ms(Slot.LosslessCompNs), "ms"),
        ("lossless.decomp_ms", ms(Slot.LosslessDecompNs), "ms"),
        ("lossless.in_bytes", n(Slot.LosslessInBytes), "B"),
        ("lossless.out_bytes", n(Slot.LosslessOutBytes), "B"),
        ("stream.other_ms", compMs - stageMs, "ms"),
        ("stream.plan_bytes", n(Slot.PlanBytes), "B"),
        ("stream.codes_bytes", n(Slot.CodesBytes), "B"),
        ("stream.outlier_bytes", n(Slot.OutlierBytes), "B"),
        ("stream.anchor_bytes", n(Slot.AnchorBytes), "B"),
        ("sparklayer.blocks", sp(n(Slot.CodecCompCalls)), "count"),
        ("sparklayer.codec_comp_busy_ms", sp(ms(Slot.CodecCompNs)), "ms"),
        ("sparklayer.codec_decomp_busy_ms", sp(ms(Slot.CodecDecompNs)), "ms"),
        ("sparklayer.comp_write_ms", sp(staged.compNs / 1e6), "ms"),
        ("sparklayer.read_decomp_ms", sp(staged.decompNs / 1e6), "ms"),
        ("sparklayer.overhead_frac", sp(1.0 - busyMs / (wallMs * slots)), "frac"),
        ("sparklayer.parquet_bytes", sp(staged.ok.map(_.parquetBytes).sum.toDouble), "B"))
    }
    val medians = perPass.head.indices.map { i =>
      val (name, _, unit) = perPass.head(i)
      (name, Stats.median(perPass.map(_(i)._2)), unit)
    }
    def wallNs(p: Pass) = (p.compNs + p.decompNs) * p.scale
    val gcMs = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum.toDouble
    val heapPeakMB = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1e6
    medians ++ Seq(
      ("data.gen_ms", setupRepMs, "ms"),
      ("jvm.gc_ms", gcMs, "ms"),
      ("jvm.heap_peak_MB", heapPeakMB, "MB"),
      ("trace.overhead_frac",
        Stats.median(pairs.map(p => wallNs(p._2))) / Stats.median(pairs.map(p => wallNs(p._1))) - 1, "frac"))
  }
}

/** The staged replay must reproduce the plain codec's streams and
  * reconstructions exactly, field by field.
  */
object Fidelity {
  def same(plain: Pass, staged: Pass): Boolean =
    plain.trips.zip(staged.trips).zipWithIndex.forall { case ((a, b), i) =>
      val ok = !a.ok || !b.ok || (a.streams.size == b.streams.size &&
        a.streams.zip(b.streams).forall { case (x, y) => java.util.Arrays.equals(x, y) } &&
        a.recon.zip(b.recon).forall { case (x, y) =>
          java.util.Arrays.equals(x.dims, y.dims) && java.util.Arrays.equals(x.data, y.data) })
      if (!ok) Console.err.println(s"[perfbench] FAILED staged replay differs from the codec on field $i")
      ok
    }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between closest ranks; 0 for no samples. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.size - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (pos - lo) * (s(hi) - s(lo))
    }

  def ratio(num: Long, den: Long): Double = if (den == 0) 0.0 else num.toDouble / den

  /** Repeats `body` while another repetition of median length still fits
    * in `seconds`; runs it at least once.
    */
  def loop[A](seconds: Double)(body: => A): Seq[A] = {
    val start = System.nanoTime()
    val out = Seq.newBuilder[A]
    val took = Seq.newBuilder[Double]
    var elapsed = 0.0
    do {
      val t0 = System.nanoTime()
      out += body
      val now = System.nanoTime()
      took += (now - t0) / 1e9
      elapsed = (now - start) / 1e9
    } while (elapsed + median(took.result()) <= seconds)
    Console.err.println(s"[perfbench] timed iterations s=${took.result().map(t => f"$t%.2f").mkString(",")}")
    out.result()
  }
}

object Report {
  /** The result line: JSON with `correct`, `attempted`, `failed`, `metrics`. */
  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String = {
    val body = metrics.map { case (name, v, unit) =>
      val value = if (v.isNaN || v.isInfinite) 0.0 else v
      s""""$name": {"value": $value, "unit": "$unit"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}
