package perfbench

import org.apache.spark.util.AccumulatorV2
import repro.core._
import repro.core.interp.{InterpPlan, LevelInterp}
import repro.core.lorenzo.Lorenzo
import repro.core.tuning.AutoTuner

/** Indices into [[StageCounters]]: nanoseconds per stage, work counts and
  * stream bytes.
  */
object Slot {
  private var n = 0
  private def next(): Int = { n += 1; n - 1 }

  val TuneNs: Int = next()
  val InterpCompNs: Int = next()
  val InterpDecompNs: Int = next()
  val InterpPoints: Int = next()
  val InterpOutliers: Int = next()
  val InterpAnchors: Int = next()
  val LorenzoCompNs: Int = next()
  val LorenzoDecompNs: Int = next()
  val LorenzoPoints: Int = next()
  val HuffEncNs: Int = next()
  val HuffDecNs: Int = next()
  val HuffSymbols: Int = next()
  val HuffBytes: Int = next()
  val LosslessCompNs: Int = next()
  val LosslessDecompNs: Int = next()
  val LosslessInBytes: Int = next()
  val LosslessOutBytes: Int = next()
  val PlanBytes: Int = next()
  val CodesBytes: Int = next()
  val OutlierBytes: Int = next()
  val AnchorBytes: Int = next()
  val LorenzoGrids: Int = next()
  val FrozenGrids: Int = next()
  val BlockwiseGrids: Int = next()
  val EstBits: Int = next()
  val CodecCompNs: Int = next()
  val CodecDecompNs: Int = next()
  val CodecCompCalls: Int = next()
  val CodecOutBytes: Int = next()

  val Count: Int = n

  /** Stages whose sum is subtracted from compression wall time to give
    * `stream.other_ms`.
    */
  val CompStages: Seq[Int] = Seq(TuneNs, InterpCompNs, LorenzoCompNs, HuffEncNs, LosslessCompNs)
}

/** Fixed-size array of counters. As a Spark accumulator it collects the
  * per-task counts of a traced Spark job; the sequential
  * path uses it without registering it.
  */
final class StageCounters extends AccumulatorV2[(Int, Long), Array[Long]] {
  private val v = new Array[Long](Slot.Count)

  override def isZero: Boolean = v.forall(_ == 0L)
  override def copy(): StageCounters = { val c = new StageCounters; v.copyToArray(c.v); c }
  override def reset(): Unit = java.util.Arrays.fill(v, 0L)
  override def add(kv: (Int, Long)): Unit = add(kv._1, kv._2)
  def add(slot: Int, n: Long): Unit = v(slot) += n
  override def merge(other: AccumulatorV2[(Int, Long), Array[Long]]): Unit = other match {
    case o: StageCounters => var i = 0; while (i < v.length) { v(i) += o.v(i); i += 1 }
    case _ => throw new UnsupportedOperationException(s"cannot merge ${other.getClass}")
  }
  override def value: Array[Long] = v.clone()

  /** Runs `f` and adds its wall time in nanoseconds to `slot`. */
  def time[A](slot: Int)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    add(slot, System.nanoTime() - t0)
    r
  }
}

/** HPEZ's `TunedInterpCompressor.compress`/`decompress`, replayed through
  * the public stage calls with a span around each, so the traced run can
  * split a round trip into stages. The stream must stay byte-identical to
  * `HPEZ().compress`; the traced run checks that on every field.
  */
final class StagedHpez(c: StageCounters) extends Compressor {
  override def name: String = "HPEZ"

  override def compress(grid: GridData, absEb: Double): Array[Byte] = {
    require(absEb > 0, "absolute error bound must be positive")
    val w = new ByteWriter()
    w.writeDouble(absEb)
    val tuned = c.time(Slot.TuneNs)(AutoTuner.tune(grid, absEb, AutoTuner.Features.hpez, AutoTuner.Target.CR))
    c.add(Slot.EstBits, math.round(tuned.estBits))
    val planStart = w.size
    if (tuned.useLorenzo) {
      c.add(Slot.LorenzoGrids, 1)
      w.writeByte(1)
      w.writeVarInt(grid.ndim.toLong)
      grid.dims.foreach(d => w.writeVarInt(d.toLong))
      w.writeByte(tuned.lorenzoOrder)
      c.add(Slot.PlanBytes, w.size - planStart)
      val work = grid.copyGrid
      val (codes, outliers) = c.time(Slot.LorenzoCompNs)(Lorenzo.compressWith(work, absEb, tuned.lorenzoOrder))
      c.add(Slot.LorenzoPoints, grid.size)
      writeCodes(w, codes)
      writeFloats(w, outliers, Slot.OutlierBytes)
    } else {
      if (tuned.plan.frozenDim >= 0) c.add(Slot.FrozenGrids, 1)
      if (tuned.plan.blockSize > 0) c.add(Slot.BlockwiseGrids, 1)
      w.writeByte(0)
      InterpPlan.serialize(w, tuned.plan)
      c.add(Slot.PlanBytes, w.size - planStart)
      val work = grid.copyGrid
      val res = c.time(Slot.InterpCompNs)(LevelInterp.compressWith(work, tuned.plan))
      c.add(Slot.InterpPoints, grid.size)
      c.add(Slot.InterpOutliers, res.outliers.length)
      c.add(Slot.InterpAnchors, res.anchors.length)
      writeCodes(w, res.codes)
      writeFloats(w, res.outliers, Slot.OutlierBytes)
      writeFloats(w, res.anchors, Slot.AnchorBytes)
    }
    val raw = w.toBytes
    val out = c.time(Slot.LosslessCompNs)(Lossless.compress(raw))
    c.add(Slot.LosslessInBytes, raw.length)
    c.add(Slot.LosslessOutBytes, out.length)
    out
  }

  private def writeCodes(w: ByteWriter, codes: Array[Int]): Unit = {
    val blob = c.time(Slot.HuffEncNs)(Huffman.encode(codes))
    c.add(Slot.HuffSymbols, codes.length)
    c.add(Slot.HuffBytes, blob.length)
    val start = w.size
    w.writeBlob(blob)
    c.add(Slot.CodesBytes, w.size - start)
  }

  private def writeFloats(w: ByteWriter, values: Array[Double], slot: Int): Unit = {
    val start = w.size
    w.writeFloatArray(values.map(_.toFloat))
    c.add(slot, w.size - start)
  }

  override def decompress(bytes: Array[Byte]): GridData = {
    val r = new ByteReader(c.time(Slot.LosslessDecompNs)(Lossless.decompress(bytes)))
    val absEb = r.readDouble()
    r.readByte() match {
      case 1 =>
        val nd = r.readVarInt().toInt
        val dims = Array.fill(nd)(r.readVarInt().toInt)
        val order = r.readByte()
        val codes = c.time(Slot.HuffDecNs)(Huffman.decode(r.readBlob()))
        val outliers = r.readFloatArray().map(_.toDouble)
        c.time(Slot.LorenzoDecompNs)(Lorenzo.decompressWith(dims, absEb, order, codes, outliers))
      case 0 =>
        val plan = InterpPlan.deserialize(r)
        val codes = c.time(Slot.HuffDecNs)(Huffman.decode(r.readBlob()))
        val outliers = r.readFloatArray().map(_.toDouble)
        val anchors = r.readFloatArray().map(_.toDouble)
        c.time(Slot.InterpDecompNs)(LevelInterp.decompressWith(plan, codes, outliers, anchors))
      case other => throw new IllegalArgumentException(s"bad predictor tag $other")
    }
  }
}

/** Decorator that counts each call, its wall time and the compressed
  * bytes; on the Spark path it is the codec handed to `CompressorUdf`.
  */
final class TimedCompressor(inner: Compressor, c: StageCounters) extends Compressor {
  override def name: String = inner.name

  override def compress(grid: GridData, absEb: Double): Array[Byte] = {
    c.add(Slot.CodecCompCalls, 1)
    val out = c.time(Slot.CodecCompNs)(inner.compress(grid, absEb))
    c.add(Slot.CodecOutBytes, out.length)
    out
  }

  override def decompress(bytes: Array[Byte]): GridData =
    c.time(Slot.CodecDecompNs)(inner.decompress(bytes))
}
