package repro.faz

import repro.core._
import repro.core.tuning.{AutoTuner, Sampling}
import repro.wavelet.SperrLike

/** FAZ-like hybrid compression framework (Liu et al., ICS'23): trial
  * compression on a sample block adaptively picks the best pipeline per
  * input — here between the wavelet pipeline (SPERR-like) and the fully
  * tuned interpolation pipeline (HPEZ's machinery with the PSNR target).
  *
  * The extra trial passes plus the wavelet path make it as slow as the
  * high-ratio compressors, matching the paper's characterization of FAZ
  * ("its compression/decompression is much slower than the classic
  * compressors").
  */
final class FazLike extends Compressor {

  override def name: String = "FAZ"

  private val wavelet = SperrLike()
  private val interp = new TunedInterpCompressor("FAZ-interp",
    AutoTuner.Features.hpez, AutoTuner.Target.PSNR)

  override def compress(grid: GridData, absEb: Double): Array[Byte] = {
    require(absEb > 0, "absolute error bound must be positive")
    // Trial both pipelines on the sample block; pick the smaller output.
    val block = Sampling.sampleBlock(grid)
    val w = new ByteWriter()
    if (wavelet.compress(block, absEb).length < interp.compress(block, absEb).length) {
      w.writeByte(0)
      w.writeBytes(wavelet.compress(grid, absEb))
    } else {
      w.writeByte(1)
      w.writeBytes(interp.compress(grid, absEb))
    }
    w.toBytes
  }

  override def decompress(bytes: Array[Byte]): GridData = {
    val tag = bytes(0) & 0xff
    val payload = java.util.Arrays.copyOfRange(bytes, 1, bytes.length)
    tag match {
      case 0 => wavelet.decompress(payload)
      case 1 => interp.decompress(payload)
      case other => throw new IllegalArgumentException(s"bad FAZ pipeline tag $other")
    }
  }
}

object FazLike { def apply(): FazLike = new FazLike }
