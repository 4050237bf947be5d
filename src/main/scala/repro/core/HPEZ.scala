package repro.core

import repro.core.interp._
import repro.core.lorenzo.Lorenzo
import repro.core.tuning.AutoTuner

/** Prediction-based error-bounded compressor following the HPEZ pipeline
  * (Fig. 1): auto-tuning → data prediction (interpolation or Lorenzo) →
  * linear quantization → Huffman encoding → Zstd lossless postprocessing.
  *
  * The same class implements HPEZ and the SZ3-like / QoZ-like baselines:
  * they differ only in the [[AutoTuner.Features]] they enable (which is
  * exactly how the paper frames them — Section 6 lists which tuning
  * blocks exist in QoZ vs. are new in HPEZ).
  */
final class TunedInterpCompressor(val name: String,
                                  val features: AutoTuner.Features,
                                  val target: AutoTuner.Target) extends Compressor {

  override def compress(grid: GridData, absEb: Double): Array[Byte] = {
    require(absEb > 0, "absolute error bound must be positive")
    val w = new ByteWriter()
    w.writeDouble(absEb)
    val tuned = AutoTuner.tune(grid, absEb, features, target)
    if (tuned.useLorenzo) {
      w.writeByte(1)
      w.writeVarInt(grid.ndim.toLong)
      grid.dims.foreach(d => w.writeVarInt(d.toLong))
      w.writeByte(tuned.lorenzoOrder)
      val work = grid.copyGrid
      val (codes, outliers) = Lorenzo.compressWith(work, absEb, tuned.lorenzoOrder)
      w.writeBlob(Huffman.encode(codes))
      LinearQuantizer.writeSideValues(w, outliers)
    } else {
      w.writeByte(0)
      InterpPlan.serialize(w, tuned.plan)
      val work = grid.copyGrid
      val res = LevelInterp.compressWith(work, tuned.plan)
      w.writeBlob(Huffman.encode(res.codes))
      LinearQuantizer.writeSideValues(w, res.outliers)
      LinearQuantizer.writeSideValues(w, res.anchors)
    }
    Lossless.compress(w.toBytes)
  }

  override def decompress(bytes: Array[Byte]): GridData = {
    val r = new ByteReader(Lossless.decompress(bytes))
    val absEb = r.readDouble()
    r.readByte() match {
      case 1 =>
        val nd = r.readVarInt().toInt
        val dims = Array.fill(nd)(r.readVarInt().toInt)
        val order = r.readByte()
        val codes = Huffman.decode(r.readBlob())
        val outliers = LinearQuantizer.readSideValues(r)
        Lorenzo.decompressWith(dims, absEb, order, codes, outliers)
      case 0 =>
        val plan = InterpPlan.deserialize(r)
        val codes = Huffman.decode(r.readBlob())
        val outliers = LinearQuantizer.readSideValues(r)
        val anchors = LinearQuantizer.readSideValues(r)
        LevelInterp.decompressWith(plan, codes, outliers, anchors)
      case other => throw new IllegalArgumentException(s"bad predictor tag $other")
    }
  }
}

/** HPEZ (QoZ 2.0) — all interpolation and tuning features enabled. */
object HPEZ {
  def apply(target: AutoTuner.Target = AutoTuner.Target.CR): TunedInterpCompressor =
    new TunedInterpCompressor("HPEZ", AutoTuner.Features.hpez, target)

  /** Ablation variant for Table 6: fast-varying-first traversal disabled. */
  def withoutFvfi(target: AutoTuner.Target = AutoTuner.Target.CR): TunedInterpCompressor =
    new TunedInterpCompressor("HPEZ (w/o FVFI)", AutoTuner.Features.hpez.copy(fvfi = false), target)
}

/** QoZ 1.1 baseline — anchors, per-level selection and α/β error-bound
  * tuning, but none of HPEZ's new interpolation components.
  */
object QoZLike {
  def apply(target: AutoTuner.Target = AutoTuner.Target.CR): TunedInterpCompressor =
    new TunedInterpCompressor("QoZ 1.1", AutoTuner.Features.qoz, target)
}

/** SZ3.1 baseline — hierarchical interpolation without anchors or
  * level-wise error-bound tuning, with the dynamic-order Lorenzo
  * alternative.
  */
object SZ3Like {
  def apply(): TunedInterpCompressor =
    new TunedInterpCompressor("SZ 3.1", AutoTuner.Features.sz3, AutoTuner.Target.CR)
}
