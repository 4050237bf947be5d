package repro.core

/** Shared transform-coefficient codec used by the wavelet (SPERR-like)
  * and HOSVD (TTHRESH-like) compressors: signed quantization indices are
  * zigzag-mapped and Huffman coded, with an escape for rare huge indices
  * so the Huffman alphabet stays bounded.
  */
object CoeffCodec {

  private val EscapeThreshold = 1 << 15

  /** Encodes signed quantization indices. */
  def encode(codes: Array[Int]): Array[Byte] = {
    val w = new ByteWriter()
    val symbols = new Array[Int](codes.length)
    val escapes = new ByteWriter()
    var nEsc = 0
    var i = 0
    while (i < codes.length) {
      val q = codes(i)
      if (q > -EscapeThreshold && q < EscapeThreshold) {
        symbols(i) = 1 + ((q << 1) ^ (q >> 31)) // zigzag, shifted past escape=0
      } else {
        symbols(i) = 0
        escapes.writeInt(q)
        nEsc += 1
      }
      i += 1
    }
    w.writeBlob(Huffman.encode(symbols))
    w.writeVarInt(nEsc.toLong)
    w.writeBytes(escapes.toBytes)
    w.toBytes
  }

  /** Inverse of [[encode]]. */
  def decode(bytes: Array[Byte]): Array[Int] = {
    val r = new ByteReader(bytes)
    val symbols = Huffman.decode(r.readBlob())
    val nEsc = r.readVarInt().toInt
    val escapes = Array.fill(nEsc)(r.readInt())
    var ei = 0
    symbols.map { s =>
      if (s == 0) { val v = escapes(ei); ei += 1; v }
      else { val z = s - 1; (z >>> 1) ^ -(z & 1) }
    }
  }
}

/** SPERR-style outlier correction: after a transform-domain reconstruction,
  * points whose error exceeds the bound get an explicit quantized
  * correction so the point-wise bound is guaranteed (SPERR's mechanism;
  * also applied to TTHRESH-like, which natively targets RMSE — see
  * DESIGN.md §6).
  *
  * A correction q = rint((orig − recon)/e) leaves a residual ≤ e/2, so the
  * corrected point is strictly within the bound e.
  */
object OutlierCorrection {

  /** Computes corrections for every point where |orig − recon| > absEb and
    * APPLIES them to `recon` in place, returning the encoded corrections.
    */
  def encode(orig: Array[Double], recon: Array[Double], absEb: Double): Array[Byte] = {
    val idxW = new ByteWriter()
    val codes = new IntBuf()
    var last = 0L
    var i = 0
    while (i < orig.length) {
      val d = orig(i) - recon(i)
      if (math.abs(d) > absEb) {
        val q = math.rint(d / absEb)
        // clamp to Int range (unreachable for practical bounds, but safe)
        val qi = math.max(Int.MinValue.toDouble, math.min(Int.MaxValue.toDouble, q)).toInt
        recon(i) += qi.toDouble * absEb
        idxW.writeVarInt(i - last)
        last = i
        codes += qi
      }
      i += 1
    }
    val w = new ByteWriter()
    val codeArr = codes.toArray
    w.writeVarInt(codeArr.length.toLong)
    w.writeBlob(idxW.toBytes)
    w.writeBlob(CoeffCodec.encode(codeArr))
    w.toBytes
  }

  /** Applies the corrections encoded by [[encode]] to `recon` in place. */
  def apply(recon: Array[Double], bytes: Array[Byte], absEb: Double): Unit = {
    val r = new ByteReader(bytes)
    val n = r.readVarInt().toInt
    val idxR = new ByteReader(r.readBlob())
    val codes = CoeffCodec.decode(r.readBlob())
    var idx = 0L
    var i = 0
    while (i < n) {
      idx += idxR.readVarInt()
      recon(idx.toInt) += codes(i).toDouble * absEb
      i += 1
    }
  }
}
