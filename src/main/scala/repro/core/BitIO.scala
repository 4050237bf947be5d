package repro.core

/** Bit-level writer (LSB-first within each byte) used by the ZFP-like
  * embedded bit-plane coder.
  */
final class BitWriter(initial: Int = 1 << 12) {
  private var buf = new Array[Byte](initial)
  private var bytePos = 0
  private var cur = 0L    // bit accumulator
  private var nbits = 0   // bits currently in accumulator

  private def ensure(n: Int): Unit =
    if (bytePos + n > buf.length) {
      var cap = buf.length
      while (cap < bytePos + n) cap *= 2
      buf = java.util.Arrays.copyOf(buf, cap)
    }

  private def flushFull(): Unit =
    while (nbits >= 8) {
      ensure(1)
      buf(bytePos) = (cur & 0xff).toByte
      bytePos += 1
      cur >>>= 8
      nbits -= 8
    }

  /** Writes a single bit (0 or 1). */
  def writeBit(b: Int): Unit = {
    cur |= (b.toLong & 1L) << nbits
    nbits += 1
    if (nbits == 64) flushFull()
  }

  /** Writes the low `n` bits of `v`, LSB first. n in [0, 57]. */
  def writeBits(v: Long, n: Int): Unit = {
    require(n >= 0 && n <= 57, s"writeBits n=$n")
    // Drain first: single-bit writes may have filled the accumulator up to
    // 63 bits, and a shift past bit 63 would silently drop bits.
    flushFull()
    cur |= (v & ((1L << n) - 1)) << nbits
    nbits += n
    flushFull()
  }

  /** Total bits written so far. */
  def bitCount: Long = bytePos.toLong * 8 + nbits

  /** Finishes the stream, padding the final byte with zeros. */
  def toBytes: Array[Byte] = {
    val savedCur = cur; val savedBits = nbits; val savedPos = bytePos
    flushFull()
    if (nbits > 0) { ensure(1); buf(bytePos) = (cur & 0xff).toByte; bytePos += 1 }
    val out = java.util.Arrays.copyOf(buf, bytePos)
    cur = savedCur; nbits = savedBits; bytePos = savedPos // keep writer reusable
    out
  }
}

/** Reader mirroring [[BitWriter]]. Reading past the end yields zero bits
  * (the writer zero-pads), which the callers' own counts make safe.
  */
final class BitReader(bytes: Array[Byte]) {
  private var bytePos = 0
  private var cur = 0L
  private var nbits = 0

  private def fill(): Unit =
    while (nbits <= 56 && bytePos < bytes.length) {
      cur |= (bytes(bytePos).toLong & 0xff) << nbits
      bytePos += 1
      nbits += 8
    }

  def readBit(): Int = {
    if (nbits == 0) fill()
    if (nbits == 0) return 0
    val b = (cur & 1L).toInt
    cur >>>= 1
    nbits -= 1
    b
  }

  def readBits(n: Int): Long = {
    require(n >= 0 && n <= 57, s"readBits n=$n")
    if (n == 0) return 0L
    fill()
    if (n <= nbits) {
      val v = cur & ((1L << n) - 1)
      cur >>>= n
      nbits -= n
      v
    } else {
      // straddles the tail: take what's buffered, zero-extend the rest
      var v = 0L; var got = 0
      while (got < n) { v |= readBit().toLong << got; got += 1 }
      v
    }
  }
}
