package repro.core.interp

import repro.core.{ByteReader, ByteWriter}

/** Interpolation paradigm for one level (Section 5.3): classic 1D-style
  * (dimension by dimension, in a chosen order) or HPEZ's symmetric
  * multi-dimensional interpolation.
  */
sealed trait Paradigm
object Paradigm {
  /** SZ3/QoZ 1D-style interpolation with an explicit order over the
    * active (non-frozen) dimensions.
    */
  final case class OneD(order: Array[Int]) extends Paradigm {
    override def toString: String = s"1D(${order.mkString(",")})"
  }
  /** HPEZ multi-dimensional interpolation (Eq. 9): linear combination of
    * the available 1-D interpolants, weighted by 1/σ².
    */
  case object MultiDim extends Paradigm
}

/** Per-level interpolation configuration — the knobs the global
  * interpolation tuner selects per level (Section 6.2).
  *
  * @param spline    spline family (linear / not-a-knot cubic / natural cubic)
  * @param paradigm  1D-style or multi-dimensional
  * @param sameLevel apply the same-level cubic split (Section 5.4.2);
  *                  honoured only for cubic splines in 1D-style passes
  */
final case class LevelConfig(spline: Spline.Kind, paradigm: Paradigm, sameLevel: Boolean)

/** The full, serializable interpolation plan. Compression writes it into
  * the stream header; decompression replays the identical traversal.
  *
  * @param dims         grid extents
  * @param anchorStride lossless anchor lattice spacing (power of two)
  * @param frozenDim    dimension excluded from interpolation (−1 = none);
  *                     anchors cover it at stride 1 (Section 6.3)
  * @param levelConfigs config per level; index l−1 holds level l
  *                     (level 1 = stride 1, level maxLevel = anchorStride/2)
  * @param levelEbs     absolute error bound per level (Eq. 15)
  * @param dimWeights   per-dimension combination weights ∝ 1/σ_i² for
  *                     multi-dimensional interpolation (Eq. 12)
  * @param fvfi         fast-varying-first traversal (Section 5.4.1)
  * @param blockSize    block side for block-wise spline override
  *                     (Section 6.6); 0 disables
  * @param blockSplines per-block spline-kind override ids (row-major over
  *                     the block lattice); empty = no override
  */
final case class InterpPlan(
    dims: Array[Int],
    anchorStride: Int,
    frozenDim: Int,
    levelConfigs: Array[LevelConfig],
    levelEbs: Array[Double],
    dimWeights: Array[Double],
    fvfi: Boolean,
    blockSize: Int,
    blockSplines: Array[Byte],
) {
  require(Integer.bitCount(anchorStride) == 1 && anchorStride >= 2,
    s"anchorStride must be a power of two >= 2: $anchorStride")
  val maxLevel: Int = Integer.numberOfTrailingZeros(anchorStride)
  require(levelConfigs.length == maxLevel, s"need $maxLevel level configs")
  require(levelEbs.length == maxLevel, s"need $maxLevel level ebs")
  require(levelEbs.forall(e => e > 0 && e < Double.PositiveInfinity),
    s"level error bounds must be finite and positive: ${levelEbs.mkString(", ")}")
  require(frozenDim >= -1 && frozenDim < dims.length)
  require(frozenDim == -1 || dims.length >= 2, "cannot freeze the only dimension")

  /** Indices of dimensions that participate in interpolation. */
  val activeDims: Array[Int] = dims.indices.filterNot(_ == frozenDim).toArray
}

object InterpPlan {

  /** Uniform plan builder: same config and eb at every level. */
  def uniform(dims: Array[Int], anchorStride: Int, cfg: LevelConfig, eb: Double,
              fvfi: Boolean = true, frozenDim: Int = -1): InterpPlan = {
    val maxLevel = Integer.numberOfTrailingZeros(anchorStride)
    InterpPlan(dims, anchorStride, frozenDim,
      Array.fill(maxLevel)(cfg), Array.fill(maxLevel)(eb),
      Array.fill(dims.length)(1.0 / dims.length), fvfi, 0, Array.emptyByteArray)
  }

  /** Level-wise error bounds from Eq. 15: e_l = e / min(α^(l−1), β). */
  def levelEbs(e: Double, alpha: Double, beta: Double, maxLevel: Int): Array[Double] =
    Array.tabulate(maxLevel)(i => e / math.min(math.pow(alpha, i), beta))

  def serialize(w: ByteWriter, p: InterpPlan): Unit = {
    w.writeVarInt(p.dims.length.toLong)
    p.dims.foreach(d => w.writeVarInt(d.toLong))
    w.writeVarInt(p.anchorStride.toLong)
    w.writeByte(p.frozenDim + 1)
    w.writeByte(if (p.fvfi) 1 else 0)
    w.writeVarInt(p.blockSize.toLong)
    p.levelConfigs.foreach { c =>
      w.writeByte(c.spline.id)
      c.paradigm match {
        case Paradigm.OneD(order) => w.writeByte(0); order.foreach(w.writeByte)
        case Paradigm.MultiDim    => w.writeByte(1)
      }
      w.writeByte(if (c.sameLevel) 1 else 0)
    }
    p.levelEbs.foreach(w.writeDouble)
    p.dimWeights.foreach(d => w.writeFloat(d.toFloat))
    w.writeBlob(p.blockSplines)
  }

  def deserialize(r: ByteReader): InterpPlan = {
    val nd = r.readVarInt().toInt
    val dims = Array.fill(nd)(r.readVarInt().toInt)
    val anchorStride = r.readVarInt().toInt
    val frozenDim = r.readByte() - 1
    val fvfi = r.readByte() == 1
    val blockSize = r.readVarInt().toInt
    val maxLevel = Integer.numberOfTrailingZeros(anchorStride)
    val nActive = if (frozenDim == -1) nd else nd - 1
    val configs = Array.fill(maxLevel) {
      val spline = Spline.Kind.fromId(r.readByte())
      val paradigm = r.readByte() match {
        case 0 => Paradigm.OneD(Array.fill(nActive)(r.readByte()))
        case 1 => Paradigm.MultiDim
      }
      val sameLevel = r.readByte() == 1
      LevelConfig(spline, paradigm, sameLevel)
    }
    val ebs = Array.fill(maxLevel)(r.readDouble())
    val weights = Array.fill(nd)(r.readFloat().toDouble)
    val blockSplines = r.readBlob()
    InterpPlan(dims, anchorStride, frozenDim, configs, ebs, weights, fvfi, blockSize, blockSplines)
  }
}
