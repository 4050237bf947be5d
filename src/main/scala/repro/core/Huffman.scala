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

  /** Encodes `symbols` into a self-describing byte blob. */
  def encode(symbols: Array[Int]): Array[Byte] = {
    val w = new ByteWriter()
    w.writeVarInt(symbols.length.toLong)
    if (symbols.isEmpty) return w.toBytes

    // Frequency table in ascending symbol order: that order breaks the
    // heap's ties in `codeLengths`, and so decides the code lengths.
    var maxSym = 0
    var i = 0
    while (i < symbols.length) {
      val s = symbols(i)
      require(s >= 0 && s < MaxSymbol, s"symbol $s outside [0, $MaxSymbol)")
      if (s > maxSym) maxSym = s
      i += 1
    }
    val counts = new Array[Long](maxSym + 1)
    i = 0
    while (i < symbols.length) { counts(symbols(i)) += 1; i += 1 }
    val freq = mutable.LongMap.empty[Long]
    i = 0
    while (i <= maxSym) { if (counts(i) > 0) freq.update(i.toLong, counts(i)); i += 1 }

    val lengths = codeLengths(freq)
    val syms = lengths.keys.toArray.sorted
    // Table: count, then (symbol varint, length byte) in symbol order.
    w.writeVarInt(syms.length.toLong)
    syms.foreach { s => w.writeVarInt(s); w.writeByte(lengths(s)) }

    // Bit-reversed codes: BitWriter is LSB-first, so writing the reversed
    // code emits the canonical code MSB-first. A code over fewer than 2^31
    // symbols is at most 45 bits deep, within one `writeBits`.
    val revArr = new Array[Long](maxSym + 1)
    val lenArr = new Array[Int](maxSym + 1)
    canonicalCodes(syms.map(s => (s, lengths(s)))).foreach { case (sym, (code, len)) =>
      revArr(sym.toInt) = reverse(code, len); lenArr(sym.toInt) = len
    }
    val bw = new BitWriter(math.max(1024, symbols.length / 2))
    i = 0
    while (i < symbols.length) { val s = symbols(i); bw.writeBits(revArr(s), lenArr(s)); i += 1 }
    w.writeBlob(bw.toBytes)
    w.toBytes
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

  /** Huffman code lengths via the standard two-queue/heap construction. */
  private def codeLengths(freq: mutable.LongMap[Long]): mutable.LongMap[Int] = {
    val lengths = mutable.LongMap.empty[Int]
    if (freq.size == 1) { lengths.update(freq.keys.head, 1); return lengths }

    // Heap of (weight, node). Leaves carry the symbol; internal nodes carry
    // children indices into `nodes`.
    final case class Node(sym: Long, left: Int, right: Int)
    val nodes = mutable.ArrayBuffer.empty[Node]
    val pq = mutable.PriorityQueue.empty[(Long, Int)](Ordering.by[(Long, Int), Long](_._1).reverse)
    freq.foreach { case (s, f) =>
      nodes += Node(s, -1, -1)
      pq.enqueue((f, nodes.length - 1))
    }
    while (pq.size > 1) {
      val (f1, n1) = pq.dequeue()
      val (f2, n2) = pq.dequeue()
      nodes += Node(-1, n1, n2)
      pq.enqueue((f1 + f2, nodes.length - 1))
    }
    val root = pq.dequeue()._2
    // Iterative DFS assigning depths.
    val stack = mutable.ArrayBuffer[(Int, Int)]((root, 0))
    while (stack.nonEmpty) {
      val (ni, depth) = stack.remove(stack.length - 1)
      val node = nodes(ni)
      if (node.left < 0) lengths.update(node.sym, math.max(1, depth))
      else {
        stack += ((node.left, depth + 1))
        stack += ((node.right, depth + 1))
      }
    }
    lengths
  }

  /** Canonical (code, length) per symbol given (symbol, length) sorted by symbol. */
  private def canonicalCodes(entries: Array[(Long, Int)]): mutable.LongMap[(Long, Int)] = {
    // Sort by (length, symbol); assign increasing codes.
    val sorted = entries.sortBy { case (s, l) => (l, s) }
    val out = mutable.LongMap.empty[(Long, Int)]
    var code = 0L
    var prevLen = 0
    sorted.foreach { case (s, l) =>
      if (prevLen != 0) code = (code + 1) << (l - prevLen)
      else code = 0L
      out.update(s, (code, l))
      prevLen = l
    }
    out
  }
}
