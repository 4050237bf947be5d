package repro.core.lorenzo

import repro.core._

/** Dynamic-order Lorenzo predictor (Section 6.5; design from Zhao et al.
  * HPDC'20, used by SZ2/SZ3). The order-m Lorenzo predictor estimates
  * each point from the m-neighborhood behind it in raster order:
  *
  *   pred(x) = − Σ_{0 ≤ k_j ≤ m, k ≠ 0}  Π_j (−1)^{k_j} C(m, k_j) · f(x − k)
  *
  * Order 1 reduces to the classic inclusion–exclusion stencil. Missing
  * neighbors (at the array boundary) contribute zero — the quantizer's
  * outlier escape absorbs the resulting first-row inaccuracy exactly as
  * in SZ. Compression predicts from reconstructed values so the
  * decompressor replays identically.
  */
object Lorenzo {

  /** The stencil's terms in stencil order: neighbour offsets k, their
    * coefficients and their flat-index (row-major) distances.
    */
  private final class Stencil(dims: Array[Int], order: Int) {
    val offsets: Array[Array[Int]] = {
      // all k-vectors with 0<=k_j<=order, k != 0
      val nd = dims.length
      val per = Array.fill(nd)(0 to order)
      def rec(j: Int, acc: List[Int]): Seq[List[Int]] =
        if (j == nd) Seq(acc.reverse) else per(j).flatMap(k => rec(j + 1, k :: acc))
      rec(0, Nil).filter(_.exists(_ != 0)).map(_.toArray).toArray
    }
    val coeffs: Array[Double] = offsets.map { k =>
      -k.map(kj => math.pow(-1, kj) * binom(order, kj)).product
    }
    val flat: Array[Int] = offsets.map(k => k.indices.map(j => k(j) * dims.drop(j + 1).product).sum)

    private def binom(n: Int, k: Int): Double = {
      var r = 1.0; var i = 0
      while (i < k) { r = r * (n - i) / (i + 1); i += 1 }
      r
    }
  }

  /** Lines of a group in the sweep; see [[Sweep]]. */
  private final val Group = 4

  /** Raster sweep over the lines along the last dimension, in groups. A
    * group is [[Group]] (or, at the end of a plane, fewer) consecutive
    * lines of one plane that are at least `order` lines into it, which
    * therefore keep the same stencil terms (those whose neighbours exist in
    * the outer dimensions), or else a single line. A group runs in steps:
    * at step s, line g of the group is at point s − g. Every neighbour of a
    * point lies at or before it in every coordinate, so the points of one
    * step depend only on earlier steps, and their predictions are
    * independent chains of additions that the CPU overlaps. Each
    * prediction sums its terms in stencil order, the first `order` points
    * of a line dropping the terms that reach back past its start, so every
    * value equals that of a point-by-point raster sweep.
    *
    * Callers walk the steps of each group: in the steady steps
    * ([[steadyFrom]] until [[steadyUntil]]) all [[Group]] lines are at
    * least `order` points in, at flat indices `base + s + g * lineStep`,
    * and [[interior]] predicts each; [[edge]] predicts the points of the
    * other steps.
    */
  private final class Sweep(dims: Array[Int], order: Int) {
    private val nd = dims.length
    private val st = new Stencil(dims, order)
    /** Points per line. */
    private val length = dims(nd - 1)
    private val nLines = dims.take(nd - 1).product
    /** Outer coordinates of line `nextLine`. */
    private val outer = new Array[Int](nd - 1)
    private var nextLine = 0
    private val termFlat = new Array[Int](st.flat.length)
    private val termCoef = new Array[Double](st.flat.length)
    private val termBack = new Array[Int](st.flat.length)
    private var nTerms = 0
    /** 1 or 2 for the 3-D stencils of that order, whose interior
      * prediction is unrolled; 0 otherwise.
      */
    private val unrolled = if (nd == 3 && (order == 1 || order == 2)) order else 0
    private val s0 = if (nd == 3) dims(1) * dims(2) else 0
    private val s1 = if (nd == 3) dims(2) else 0

    /** [[unrolled]] if the group's lines keep every term, else 0. */
    private var kernel = 0
    /** Flat index of the group's first point. */
    var base = 0
    /** Lines in the group. */
    var size = 0
    /** Flat-index distance between the points of consecutive lines in one step. */
    val lineStep: Int = length - 1
    /** The first step at which all [[Group]] lines are at least `order` points in. */
    val steadyFrom: Int = order + Group - 1
    /** One past the last such step: the line length for a group of [[Group]] lines, else 0. */
    var steadyUntil = 0
    /** Steps in the group. */
    def steps: Int = length + size - 1

    /** Moves to the next group; false once every line has been visited. */
    def nextGroup(): Boolean = {
      if (nextLine >= nLines) return false
      base = nextLine * length
      nTerms = 0
      var t = 0
      while (t < st.flat.length) {
        val off = st.offsets(t)
        var ok = true
        var j = 0
        while (ok && j < nd - 1) { if (outer(j) < off(j)) ok = false; j += 1 }
        if (ok) {
          termFlat(nTerms) = st.flat(t); termCoef(nTerms) = st.coeffs(t); termBack(nTerms) = off(nd - 1)
          nTerms += 1
        }
        t += 1
      }
      kernel = if (outer.forall(_ >= order)) unrolled else 0
      size = if (nd >= 2 && outer(nd - 2) >= order) math.min(Group, dims(nd - 2) - outer(nd - 2)) else 1
      steadyUntil = if (size == Group) length else 0
      var i = 0
      while (i < size) {
        var k = nd - 2
        if (k >= 0) {
          outer(k) += 1
          while (k > 0 && outer(k) == dims(k)) { outer(k) = 0; k -= 1; outer(k) += 1 }
        }
        i += 1
      }
      nextLine += size
      true
    }

    /** First line of the group that has a point in step `s`. */
    def lo(s: Int): Int = math.max(0, s - length + 1)
    /** One past the last line of the group that has a point in step `s`. */
    def hi(s: Int): Int = math.min(size, s + 1)
    /** Flat index of line `g`'s point in step `s`. */
    def index(g: Int, s: Int): Int = base + g * length + s - g

    /** Prediction of line `g`'s point in step `s`, from the terms whose
      * neighbours exist.
      */
    def edge(d: Array[Double], g: Int, s: Int): Double = {
      val x = s - g
      val idx = base + g * length + x
      if (x >= order) return interior(d, idx)
      var p = 0.0
      var t = 0
      while (t < nTerms) { if (termBack(t) <= x) p += termCoef(t) * d(idx - termFlat(t)); t += 1 }
      p
    }

    /** Prediction of the point at flat index `i`, at least `order` points
      * into a line of the group, from all of the group's terms. Where the
      * group keeps every term, the 3-D stencils of orders 1 and 2 are
      * written out row by row (k0, then k1, then k2 ascending), which is
      * their stencil order.
      */
    def interior(d: Array[Double], i: Int): Double =
      if (kernel == 2) interior3o2(d, i)
      else if (kernel == 1) interior3o1(d, i)
      else {
        var p = 0.0
        var t = 0
        while (t < nTerms) { p += termCoef(t) * d(i - termFlat(t)); t += 1 }
        p
      }

    private def interior3o1(d: Array[Double], i: Int): Double = {
      val c = termCoef
      var p = 0.0 + c(0) * d(i - 1)
      p = p + c(1) * d(i - s1) + c(2) * d(i - s1 - 1)
      p = p + c(3) * d(i - s0) + c(4) * d(i - s0 - 1)
      p + c(5) * d(i - s0 - s1) + c(6) * d(i - s0 - s1 - 1)
    }

    private def interior3o2(d: Array[Double], i: Int): Double = {
      val c = termCoef
      var p = 0.0 + c(0) * d(i - 1) + c(1) * d(i - 2)
      p = row3(p, d, i - s1, c, 2)
      p = row3(p, d, i - 2 * s1, c, 5)
      p = row3(p, d, i - s0, c, 8)
      p = row3(p, d, i - s0 - s1, c, 11)
      p = row3(p, d, i - s0 - 2 * s1, c, 14)
      p = row3(p, d, i - 2 * s0, c, 17)
      p = row3(p, d, i - 2 * s0 - s1, c, 20)
      row3(p, d, i - 2 * s0 - 2 * s1, c, 23)
    }

    /** `p` plus the three terms of one stencil row ending at flat index `r`,
      * with coefficients `c(t)` to `c(t + 2)`.
      */
    private def row3(p: Double, d: Array[Double], r: Int, c: Array[Double], t: Int): Double =
      p + c(t) * d(r) + c(t + 1) * d(r - 1) + c(t + 2) * d(r - 2)
  }

  /** Runs the sweep over `d`. Compressing (`decode` false), it quantizes
    * `d` in place into one code per point of `codes`, in raster order, and
    * with `absErr` and `sqErr` given, records each point's |x − pred| and
    * (recon − x)² there. Decoding, it reconstructs `d` from `codes`; the
    * escaped points of `d` must already hold their stored values, which no
    * prediction reads before the sweep reaches them.
    */
  private def sweep(dims: Array[Int], d: Array[Double], eb: Double, order: Int, codes: Array[Int],
                    decode: Boolean, absErr: Array[Double], sqErr: Array[Double]): Unit = {
    def put(idx: Int, p: Double): Unit =
      if (decode) {
        val code = codes(idx)
        if (code != 0) d(idx) = LinearQuantizer.reconstruct(code, p, eb)
      } else {
        val v = d(idx)
        val code = LinearQuantizer.code(v, p, eb)
        codes(idx) = code
        val recon = if (code != 0) LinearQuantizer.reconstruct(code, p, eb) else LinearQuantizer.escaped(v)
        d(idx) = recon
        if (absErr != null) { absErr(idx) = math.abs(v - p); sqErr(idx) = (recon - v) * (recon - v) }
      }
    val sw = new Sweep(dims, order)
    val dl = sw.lineStep
    while (sw.nextGroup()) {
      var s = 0
      while (s < sw.steps) {
        if (s == sw.steadyFrom) {
          val end = sw.steadyUntil
          while (s < end) {
            val i0 = sw.base + s
            val p0 = sw.interior(d, i0)
            val p1 = sw.interior(d, i0 + dl)
            val p2 = sw.interior(d, i0 + 2 * dl)
            val p3 = sw.interior(d, i0 + 3 * dl)
            put(i0, p0); put(i0 + dl, p1); put(i0 + 2 * dl, p2); put(i0 + 3 * dl, p3)
            s += 1
          }
        }
        if (s < sw.steps) {
          var g = sw.lo(s)
          while (g < sw.hi(s)) { put(sw.index(g, s), sw.edge(d, g, s)); g += 1 }
          s += 1
        }
      }
    }
  }

  /** Compresses with the given Lorenzo order; returns quantization codes
    * and outliers (mutates `work` into the reconstruction).
    */
  def compressWith(work: GridData, eb: Double, order: Int): (Array[Int], Array[Double]) = {
    val d = work.data
    val codes = new Array[Int](d.length)
    sweep(work.dims, d, eb, order, codes, decode = false, null, null)
    // An escaped point's reconstruction is its stored value.
    val outliers = new Array[Double](codes.count(_ == 0))
    var oi = 0
    var i = 0
    while (i < codes.length) { if (codes(i) == 0) { outliers(oi) = d(i); oi += 1 }; i += 1 }
    (codes, outliers)
  }

  /** Inverse of [[compressWith]]. */
  def decompressWith(dims: Array[Int], eb: Double, order: Int,
                     codes: Array[Int], outliers: Array[Double]): GridData = {
    val d = new Array[Double](dims.map(_.toLong).product.toInt)
    var oi = 0
    var i = 0
    while (i < d.length) { if (codes(i) == 0) { d(i) = outliers(oi); oi += 1 }; i += 1 }
    sweep(dims, d, eb, order, codes, decode = true, null, null)
    new GridData(dims.clone(), d)
  }

  /** Trial statistics for the Lorenzo tuning step (Section 6.5). */
  final case class LorenzoTrial(order: Int, nPredicted: Long, meanAbsErr: Double,
                                reconMse: Double, estPayloadBits: Double)

  /** Evaluates Lorenzo order `order` on `sample` in `work`'s buffers,
    * returning an entropy-based size estimate and the reconstruction MSE.
    * FAZ's multiplicative bit-rate adjustment is applied by the caller.
    */
  def trial(sample: GridData, eb: Double, order: Int, work: TrialWork = new TrialWork): LorenzoTrial = {
    val n = sample.size
    val absErr = work.doubles(1, n)
    val sqErr = work.doubles(2, n)
    val codes = work.ints(n)
    sweep(sample.dims, work.load(sample), eb, order, codes, decode = false, absErr, sqErr)
    // Summed in raster order, as a point-by-point sweep would.
    var sumAbs = 0.0
    var sumSqRecon = 0.0
    var nOutliers = 0
    var i = 0
    while (i < n) {
      sumAbs += absErr(i); sumSqRecon += sqErr(i)
      if (codes(i) == 0) nOutliers += 1
      i += 1
    }
    val cnt = n.toLong
    LorenzoTrial(order, cnt, if (cnt == 0) 0 else sumAbs / cnt,
      if (cnt == 0) 0 else sumSqRecon / cnt, LinearQuantizer.payloadBits(codes, n, nOutliers))
  }
}
