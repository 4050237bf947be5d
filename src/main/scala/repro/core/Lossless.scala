package repro.core

/** Zstd lossless post-processing (Step 5 of the HPEZ pipeline, Fig. 1).
  *
  * Uses zstd-jni shipped with the Spark distribution (the same library
  * the paper's compressors link against). The output starts with codec
  * tag 1 (Zstd, the only codec) and the raw size.
  */
object Lossless {

  /** Zstd compression level. */
  private final val Level = 3

  /** Compresses `bytes`; output is self-describing (codec tag + raw size). */
  def compress(bytes: Array[Byte]): Array[Byte] = {
    val w = new ByteWriter(bytes.length / 2 + 64)
    w.writeByte(1)
    w.writeVarInt(bytes.length.toLong)
    w.writeBlob(com.github.luben.zstd.Zstd.compress(bytes, Level))
    w.toBytes
  }

  /** Inverse of [[compress]]. */
  def decompress(bytes: Array[Byte]): Array[Byte] = {
    val r = new ByteReader(bytes)
    val codec = r.readByte()
    require(codec == 1, s"unknown lossless codec tag $codec")
    val out = new Array[Byte](r.readVarInt().toInt)
    com.github.luben.zstd.Zstd.decompress(out, r.readBlob())
    out
  }
}
