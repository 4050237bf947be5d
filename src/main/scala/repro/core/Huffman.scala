package repro.core

import scala.collection.mutable

/** Canonical Huffman codec over Int symbols in [0, 2^21).
  *
  * This is Step 4 of the HPEZ pipeline (Fig. 1): quantized prediction
  * errors are entropy-coded; "a more concentrated distribution of
  * quantization errors will lower the encoded tree size".
  *
  * The serialized form stores only (symbol, code length) pairs; canonical
  * code assignment makes encode/decode agree without storing the tree.
  */
object Huffman {

  /** Encodes `symbols` into a self-describing byte blob: the symbol
    * count, the code table as (symbol varint, length byte) in ascending
    * symbol order, then the payload blob, codes packed LSB-first.
    */
  def encode(symbols: Array[Int]): Array[Byte] = encode(symbols, symbols.length)

  /** [[encode]] of the first `n` of `symbols`. The quantizers' escape code
    * 0 is counted apart, so the histogram and the code table span only
    * the other symbols, which cluster around the quantizer radius.
    */
  def encode(symbols: Array[Int], n: Int): Array[Byte] = {
    if (n == 0) return Array[Byte](0) // the count 0 as a varint

    var esc = 0 // occurrences of 0
    var lo = Int.MaxValue // the range of the other symbols
    var hi = 0
    var i = 0
    while (i < n) {
      val s = symbols(i)
      if (s == 0) esc += 1
      else {
        if (s < lo) lo = s
        if (s > hi) hi = s
      }
      i += 1
    }
    val bad = if (lo < 0) lo else hi // a message closing over `lo` would box it
    require(lo >= 0 && hi < MaxSymbol, s"symbol $bad outside [0, $MaxSymbol)")
    val counts = new Array[Int](math.max(0, hi - lo + 1))
    i = 0
    while (i < n) { val s = symbols(i); if (s != 0) counts(s - lo) += 1; i += 1 }
    val distinct = new IntBuf()
    val freq = new IntBuf()
    if (esc > 0) { distinct += 0; freq += esc }
    i = 0
    while (i < counts.length) { if (counts(i) > 0) { distinct += lo + i; freq += counts(i) }; i += 1 }
    val syms = distinct.toArray // ascending
    val symCounts = freq.toArray
    val m = syms.length
    val lens = codeLengths(syms, symCounts)

    // Canonical codes: symbols in (length, symbol) order take consecutive
    // codes, so each length's next code starts where the shorter ones end.
    val maxLen = lens.max
    val next = new Array[Long](maxLen + 1)
    i = 0
    while (i < m) { next(lens(i)) += 1; i += 1 }
    var code = 0L
    var len = 1
    while (len <= maxLen) { val c = next(len); next(len) = code; code = (code + c) << 1; len += 1 }

    // table(s − lo): the code of s ≠ 0 bit-reversed, so that LSB-first
    // packing emits it MSB-first, above its 6-bit length; `escape` is 0's.
    // A code over fewer than 2^31 symbols is at most 45 bits deep.
    val table = new Array[Long](counts.length)
    var escape = 0L
    val header = new ByteWriter(16 + 4 * m)
    header.writeVarInt(n.toLong)
    header.writeVarInt(m.toLong)
    var bits = 0L
    i = 0
    while (i < m) {
      val l = lens(i)
      val e = (reverse(next(l), l) << 6) | l
      if (syms(i) == 0) escape = e else table(syms(i) - lo) = e
      next(l) += 1
      bits += symCounts(i).toLong * l
      header.writeVarInt(syms(i).toLong)
      header.writeByte(l)
      i += 1
    }
    val payloadBytes = ((bits + 7) >>> 3).toInt
    header.writeVarInt(payloadBytes.toLong)
    val head = header.toBytes
    val out = java.util.Arrays.copyOf(head, head.length + payloadBytes)
    var acc = 0L // pending bits, oldest lowest
    var nbits = 0 // bits in `acc`
    var pos = head.length
    i = 0
    while (i < n) {
      val e = if (symbols(i) == 0) escape else table(symbols(i) - lo)
      val l = (e & 63).toInt
      val c = e >>> 6
      acc |= c << nbits
      nbits += l
      if (nbits >= 64) {
        // The word is full; the code's top `nbits` bits did not fit. Byte
        // stores beat ByteBuffer.putLong here (2.5% of a whole compression).
        var b = 0
        while (b < 8) { out(pos + b) = (acc >>> (8 * b)).toByte; b += 1 }
        pos += 8
        nbits -= 64
        acc = c >>> (l - nbits)
      }
      i += 1
    }
    while (nbits > 0) { out(pos) = acc.toByte; acc >>>= 8; nbits -= 8; pos += 1 }
    out
  }

  /** Symbols [[encode]] accepts are below this bound; every caller's are
    * below 2^16.
    */
  private final val MaxSymbol = 1 << 21

  /** Bits resolved by one lookup of the decode table; longer codes finish
    * with a canonical search over the remaining bits.
    */
  private final val TableBits = 11

  /** Most codes one lookup of the multi-symbol table decodes. */
  private final val PerLookup = 4

  /** Decodes a blob produced by [[encode]]. Raises IllegalArgumentException
    * on an invalid code table, a bit pattern that is no code, or a payload
    * that ends before `n` symbols are decoded.
    */
  def decode(bytes: Array[Byte]): Array[Int] = {
    val r = new ByteReader(bytes)
    val n = r.readVarInt().toInt
    if (n == 0) return Array.emptyIntArray
    val tableSize = r.readVarInt().toInt
    require(tableSize >= 1, "corrupt huffman table")
    val syms = new Array[Int](tableSize)
    val lens = new Array[Int](tableSize)
    var t = 0
    while (t < tableSize) {
      val sym = r.readVarInt()
      require(sym <= Int.MaxValue, "corrupt huffman table")
      syms(t) = sym.toInt; lens(t) = r.readByte()
      t += 1
    }
    val payload = r.readBlob()

    if (tableSize == 1) return Array.fill(n)(syms(0))
    // A valid stream spends at least one bit per symbol.
    require(n.toLong <= payload.length * 8L, "truncated huffman stream")

    // Canonical code assignment: symbols sorted by (length, symbol) take
    // consecutive codes; count(l) and firstCode(l) describe length l. A
    // Huffman code over fewer than 2^31 symbols is at most 45 bits deep.
    val maxLen = lens.max
    require(lens.min >= 1 && maxLen <= 56, "corrupt huffman table")
    val order = (0 until tableSize).sortBy(i => (lens(i), syms(i))).toArray
    val sorted = order.map(syms)
    val count = new Array[Int](maxLen + 1)
    lens.foreach(l => count(l) += 1)
    val firstCode = new Array[Long](maxLen + 1)
    val firstIndex = new Array[Int](maxLen + 1)
    // limit(l): end of the length-l codes left-justified to maxLen bits;
    // canonical codes make these ascend with l.
    val limit = new Array[Long](maxLen + 1)
    var code = 0L
    var idx = 0
    var len = 1
    while (len <= maxLen) {
      firstCode(len) = code
      firstIndex(len) = idx
      code += count(len)
      idx += count(len)
      require(code <= (1L << len), "corrupt huffman table") // over-subscribed
      limit(len) = code << (maxLen - len)
      code <<= 1
      len += 1
    }

    // The payload is LSB-first with codes written MSB-first, so the next
    // k bits, read as an integer, hold a code bit-reversed. Each table
    // entry is (index in `sorted`) << 6 | length; 0 marks a code longer
    // than k bits, -1 a pattern that starts no code.
    val k = math.min(TableBits, maxLen)
    val mask = (1L << k) - 1
    val table = Array.fill(1 << k)(-1)
    var si = 0
    while (si < tableSize) {
      val l = lens(order(si))
      val c = firstCode(l) + (si - firstIndex(l))
      if (l <= k) {
        var j = reverse(c, l).toInt
        while (j < table.length) { table(j) = (si << 6) | l; j += 1 << l }
      } else table(reverse(c >>> (l - k), k).toInt) = 0
      si += 1
    }

    // Short codes often come several to k bits: multi(j) decodes up to
    // PerLookup of them at once as (count << 8) | total length, with the
    // symbols in multiSyms; count 0 sends pattern j to `table`.
    val multi = new Array[Int](1 << k)
    val multiSyms = new Array[Int]((1 << k) * PerLookup)
    var j = 0
    while (j < multi.length) {
      var used = 0
      var cnt = 0
      var e = table(j)
      // The pattern j >>> used has k − used known bits; a code fits if no longer.
      while (cnt < PerLookup && e > 0 && (e & 63) <= k - used) {
        multiSyms(j * PerLookup + cnt) = sorted(e >>> 6)
        used += e & 63
        cnt += 1
        e = table(j >>> used)
      }
      multi(j) = (cnt << 8) | used
      j += 1
    }

    val out = new Array[Int](n)
    val words = java.nio.ByteBuffer.wrap(payload).order(java.nio.ByteOrder.LITTLE_ENDIAN)
    val fullMask = (1L << maxLen) - 1
    var buf = 0L // unread bits, next bit lowest; past the payload's end, zeros
    var nbits = 0 // payload bits in `buf`
    var pos = 0 // next payload byte not yet in `buf`
    var i = 0
    while (i < n) {
      if (pos + 8 <= payload.length) {
        // Tops `buf` up to 56+ bits. Bits above `nbits` are the payload's
        // next bits too, so loading them again ORs in the same values.
        buf |= words.getLong(pos) << nbits
        val bytes = (63 - nbits) >>> 3
        pos += bytes
        nbits += bytes << 3
      } else if (nbits < maxLen)
        while (nbits <= 56 && pos < payload.length) {
          buf |= (payload(pos) & 0xffL) << nbits
          pos += 1; nbits += 8
        }
      val bits = (buf & mask).toInt
      val info = multi(bits)
      val l =
        if (info > 0xff && i + PerLookup <= n) {
          // Copies all PerLookup slots; those past `count` are rewritten later.
          var t = 0
          while (t < PerLookup) { out(i + t) = multiSyms(bits * PerLookup + t); t += 1 }
          i += info >>> 8
          info & 0xff
        } else {
          val e = table(bits)
          if (e > 0) { out(i) = sorted(e >>> 6); i += 1; e & 63 }
          else {
            require(e == 0, "corrupt huffman stream")
            // Longer than k bits: find the length by the left-justified
            // limits, then the symbol by the offset within that length.
            val v = reverse(buf & fullMask, maxLen)
            var cl = k + 1
            while (cl < maxLen && v >= limit(cl)) cl += 1
            val off = (v >>> (maxLen - cl)) - firstCode(cl)
            require(off >= 0 && off < count(cl), "corrupt huffman stream")
            out(i) = sorted(firstIndex(cl) + off.toInt)
            i += 1
            cl
          }
        }
      buf >>>= l
      nbits -= l
      if (nbits < 0) throw new IllegalArgumentException("truncated huffman stream")
    }
    out
  }

  /** The low `len` bits of `v` in reverse order. */
  private def reverse(v: Long, len: Int): Long = java.lang.Long.reverse(v) >>> (64 - len)

  /** Huffman code length of each of `syms` (ascending, `syms(i)` seen
    * `counts(i)` times), aligned with `syms`.
    *
    * Equal weights leave the heap in an order set by heap position, so the
    * lengths depend on the order in which the leaves enter it. That order
    * is `mutable.LongMap` iteration order over the symbols inserted in
    * ascending order — hash-slot order, not ascending — which the streams
    * written so far were coded with; a map of the distinct symbols
    * reproduces it.
    */
  private def codeLengths(syms: Array[Int], counts: Array[Int]): Array[Int] = {
    val m = syms.length
    if (m == 1) return Array(1)
    val slots = mutable.LongMap.empty[Int]
    var i = 0
    while (i < m) { slots.update(syms(i).toLong, i); i += 1 }

    // Node ids: a leaf's is its index in `syms`; internal nodes take m, m+1,
    // … in merge order, so a parent's id exceeds its children's.
    val heap = new Heap(m)
    slots.foreachValue(si => heap.push(counts(si).toLong, si))
    val parent = new Array[Int](2 * m - 1)
    var id = m
    while (heap.size > 1) {
      val w1 = heap.topWeight; parent(heap.topNode) = id; heap.pop()
      val w2 = heap.topWeight; parent(heap.topNode) = id; heap.pop()
      heap.push(w1 + w2, id)
      id += 1
    }
    val depth = new Array[Int](2 * m - 1) // the root, id 2m − 2, has depth 0
    i = 2 * m - 3
    while (i >= 0) { depth(i) = depth(parent(i)) + 1; i -= 1 }
    java.util.Arrays.copyOf(depth, m)
  }

  /** Min-heap of (weight, node id) that sifts exactly as
    * `mutable.PriorityQueue` under a reversed weight ordering: 1-based, an
    * entry moves past another only when strictly lighter, and of two
    * equal children the left one rises.
    */
  private final class Heap(capacity: Int) {
    private val weight = new Array[Long](capacity + 1)
    private val node = new Array[Int](capacity + 1)
    var size = 0

    def topWeight: Long = weight(1)
    def topNode: Int = node(1)

    def push(w: Long, id: Int): Unit = {
      size += 1
      var k = size
      while (k > 1 && weight(k >> 1) > w) { weight(k) = weight(k >> 1); node(k) = node(k >> 1); k >>= 1 }
      weight(k) = w; node(k) = id
    }

    /** Removes the top: the last entry moves to the root and sifts down. */
    def pop(): Unit = {
      val w = weight(size)
      val id = node(size)
      size -= 1
      var k = 1
      var done = false
      while (!done && 2 * k <= size) {
        var j = 2 * k
        if (j < size && weight(j) > weight(j + 1)) j += 1
        if (w <= weight(j)) done = true
        else { weight(k) = weight(j); node(k) = node(j); k = j }
      }
      weight(k) = w; node(k) = id
    }
  }
}
