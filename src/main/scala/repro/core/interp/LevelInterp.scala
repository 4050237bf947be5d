package repro.core.interp

import scala.annotation.switch
import repro.core._

/** Anchor-based level-wise interpolation predictor (Sections 5 and 6.3).
  *
  * One traversal engine serves compression, decompression and tuning
  * trials: the traversal order is fully determined by the [[InterpPlan]],
  * so the decompressor replays the exact prediction sequence of the
  * compressor. During compression each predicted point is immediately
  * replaced by its reconstruction, guaranteeing both sides predict from
  * identical data.
  *
  * Features implemented here:
  *  - hierarchical levels from stride anchorStride/2 down to 1;
  *  - lossless anchors on the anchorStride lattice (stride 1 along a
  *    frozen dimension — Section 6.3);
  *  - 1D-style passes with a configurable dimension order, or the
  *    symmetric multi-dimensional paradigm (Section 5.3, Eq. 9);
  *  - linear / not-a-knot cubic / natural cubic splines (Section 5.2);
  *  - the same-level cubic two-step split (Section 5.4.2), honoured in
  *    1D-style cubic passes;
  *  - fast-varying-first traversal toggle (Section 5.4.1);
  *  - per-level error bounds (Eq. 15);
  *  - per-block spline override from block-wise tuning (Section 6.6).
  *
  * The traversal works on whole lines (the loop structure of SZ3, Liang et
  * al., IEEE TBD 2022, and QoZ, Liu et al., SC'22): no point of a pass
  * predicts from another point of the same pass, so each line is
  * predicted into a buffer — boundary cases and the block spline resolved
  * once per line segment, boundary points peeled off, interior points in
  * one full-stencil loop — and then handed to the compress, decompress or
  * trial loop in one call.
  */
object LevelInterp {

  /** Quantizer code radius shared by all interpolation compressors. */
  val Radius: Int = 32768

  /** Output of a compression traversal. */
  final case class InterpResult(codes: Array[Int], outliers: Array[Double], anchors: Array[Double])

  /** Aggregate statistics from a tuning trial (Section 6.2).
    *
    * @param sumSqRecon     Σ (reconstruction − original)² — drives the tuner's
    *                       PSNR estimate
    * @param estPayloadBits Huffman+Zstd bits of the codes plus 36 bits per
    *                       outlier; NaN when the trial ran with
    *                       `encode = false` (error statistics only)
    * @param perLevelAbs    Σ |prediction error| per level (index l−1)
    * @param perLevelCnt    predicted-point count per level
    */
  final case class TrialStats(nPredicted: Long, sumAbsErr: Double, sumSqRecon: Double,
                              estPayloadBits: Double, nAnchors: Long,
                              perLevelAbs: Array[Double], perLevelCnt: Array[Long]) {
    def meanAbsErr: Double = if (nPredicted == 0) 0 else sumAbsErr / nPredicted
    def reconMse: Double = if (nPredicted == 0) 0 else sumSqRecon / nPredicted
    /** Estimated total bits incl. fp32 anchors. */
    def totalBits: Double = estPayloadBits + 32.0 * nAnchors
  }

  // ---------------------------------------------------------------------
  // Anchors

  def countAnchors(dims: Array[Int], anchorStride: Int, frozenDim: Int): Long = {
    var n = 1L
    var k = 0
    while (k < dims.length) {
      n *= (if (k == frozenDim) dims(k).toLong else ((dims(k) - 1) / anchorStride + 1).toLong)
      k += 1
    }
    n
  }

  /** Anchor flat indices in row-major order. */
  private def anchorIndices(plan: InterpPlan): Array[Int] = {
    val nd = plan.dims.length
    val steps = Array.tabulate(nd)(k => if (k == plan.frozenDim) 1 else plan.anchorStride)
    val out = new Array[Int](countAnchors(plan.dims, plan.anchorStride, plan.frozenDim).toInt)
    val lines = new Lines(plan.dims, GridData.strides(plan.dims), new Array[Int](nd), steps, nd - 1)
    var n = 0
    while (lines.valid) {
      var i = 0
      var idx = lines.base
      while (i < lines.length) { out(n) = idx; n += 1; idx += lines.idxStep; i += 1 }
      lines.next()
    }
    out
  }

  // ---------------------------------------------------------------------
  // Public entry points

  /** Runs the prediction traversal over `work` (which is mutated into the
    * reconstruction) and collects quantization codes / outliers / anchors.
    */
  def compressWith(work: GridData, plan: InterpPlan): InterpResult = {
    val anchorIdx = anchorIndices(plan)
    val anchors = new Array[Double](anchorIdx.length)
    var i = 0
    while (i < anchorIdx.length) {
      val v = work.data(anchorIdx(i)).toFloat.toDouble // fp32 lossless storage (inputs are fp32-exact)
      anchors(i) = v; work.data(anchorIdx(i)) = v
      i += 1
    }
    val t = new CompressTraversal(work.data, plan, new Array[Int](work.size - anchors.length))
    t.run()
    InterpResult(t.codes, t.outliers.toArray, anchors)
  }

  /** Rebuilds the grid from codes/outliers/anchors by replaying the
    * compressor's traversal.
    */
  def decompressWith(plan: InterpPlan, codes: Array[Int], outliers: Array[Double],
                     anchors: Array[Double]): GridData = {
    val grid = new GridData(plan.dims.clone(), new Array[Double](plan.dims.map(_.toLong).product.toInt))
    val anchorIdx = anchorIndices(plan)
    var i = 0
    while (i < anchorIdx.length) { grid.data(anchorIdx(i)) = anchors(i); i += 1 }
    new DecompressTraversal(grid.data, plan, codes, outliers).run()
    grid
  }

  /** Tuning trial: copies `grid` into `work`'s buffer and runs the
    * traversal there, quantizing with the plan's error bounds; `grid` is
    * left unchanged. Returns error/size statistics. With `encode` the size
    * estimate is [[LinearQuantizer.payloadBits]]; callers that only need
    * prediction-error statistics pass `encode = false` and get no size
    * estimate. A tuning run passes one `work` to all of its trials.
    */
  def trial(grid: GridData, plan: InterpPlan, encode: Boolean = true,
            work: TrialWork = new TrialWork): TrialStats = {
    require(grid.dims sameElements plan.dims, "trial grid and plan dims differ")
    val d = work.load(grid)
    val anchorIdx = anchorIndices(plan)
    var i = 0
    while (i < anchorIdx.length) { d(anchorIdx(i)) = d(anchorIdx(i)).toFloat.toDouble; i += 1 }
    val t = new TrialTraversal(d, plan, work.ints(grid.size - anchorIdx.length))
    t.run()
    val estPayloadBits =
      if (encode) LinearQuantizer.payloadBits(t.codes, t.count, t.outliers)
      else Double.NaN
    TrialStats(t.count, t.sumAbs, t.sumSqRecon, estPayloadBits, anchorIdx.length, t.levelAbs, t.levelCnt)
  }

  // ---------------------------------------------------------------------
  // Line consumers: one monomorphic loop each for compress, decompress and trial

  private final class CompressTraversal(work: Array[Double], plan: InterpPlan, val codes: Array[Int])
      extends Traversal(work, plan) {
    val outliers = new DblBuf()
    private var n = 0
    private var eb = 1.0
    protected def startLevel(level: Int, e: Double): Unit = eb = e
    protected def line(pred: Array[Double], m: Int, idx0: Int, step: Int): Unit = {
      var c = n
      var i = 0
      var idx = idx0
      while (i < m) {
        val v = data(idx)
        val p = pred(i)
        val code = LinearQuantizer.code(v, p, eb, Radius)
        codes(c) = code; c += 1
        data(idx) =
          if (code != 0) LinearQuantizer.reconstruct(code, p, eb, Radius)
          else { val e = LinearQuantizer.escaped(v); outliers += e; e }
        i += 1; idx += step
      }
      n = c
    }
  }

  private final class DecompressTraversal(out: Array[Double], plan: InterpPlan, codes: Array[Int],
                                          outliers: Array[Double]) extends Traversal(out, plan) {
    private var ci = 0
    private var oi = 0
    private var eb = 1.0
    protected def startLevel(level: Int, e: Double): Unit = eb = e
    protected def line(pred: Array[Double], m: Int, idx0: Int, step: Int): Unit = {
      var c = ci
      var i = 0
      var idx = idx0
      while (i < m) {
        val code = codes(c); c += 1
        data(idx) =
          if (code == 0) { val v = outliers(oi); oi += 1; v }
          else LinearQuantizer.reconstruct(code, pred(i), eb, Radius)
        i += 1; idx += step
      }
      ci = c
    }
  }

  private final class TrialTraversal(work: Array[Double], plan: InterpPlan, val codes: Array[Int])
      extends Traversal(work, plan) {
    var count = 0
    var outliers = 0
    var sumAbs = 0.0
    var sumSqRecon = 0.0
    val levelAbs = new Array[Double](plan.maxLevel)
    val levelCnt = new Array[Long](plan.maxLevel)
    private var curLevel = 1
    private var eb = 1.0
    protected def startLevel(level: Int, e: Double): Unit = { curLevel = level; eb = e }
    protected def line(pred: Array[Double], m: Int, idx0: Int, step: Int): Unit = {
      var absL = levelAbs(curLevel - 1)
      var sa = sumAbs
      var sr = sumSqRecon
      var c = count
      var i = 0
      var idx = idx0
      while (i < m) {
        val v = data(idx)
        val p = pred(i)
        val err = math.abs(v - p)
        sa += err
        absL += err
        val code = LinearQuantizer.code(v, p, eb, Radius)
        codes(c) = code; c += 1
        val recon =
          if (code != 0) LinearQuantizer.reconstruct(code, p, eb, Radius)
          else { outliers += 1; LinearQuantizer.escaped(v) }
        val re = recon - v
        sr += re * re
        data(idx) = recon
        i += 1; idx += step
      }
      count = c
      levelCnt(curLevel - 1) += m
      levelAbs(curLevel - 1) = absL
      sumAbs = sa; sumSqRecon = sr
    }
  }

  // ---------------------------------------------------------------------
  // Traversal

  /** Row-major walk over the lines of a start/step lattice: one line per
    * combination of the coordinates of every dimension but `inner`
    * (ascending dimension order, the last fastest). A line's points run
    * along `inner` from its start coordinate.
    */
  private final class Lines(dims: Array[Int], strides: Array[Int], starts: Array[Int],
                            steps: Array[Int], inner: Int) {
    val coords: Array[Int] = starts.clone()
    /** Points per line. */
    val length: Int =
      if (starts(inner) < dims(inner)) (dims(inner) - 1 - starts(inner)) / steps(inner) + 1 else 0
    /** Flat-index distance between consecutive points of a line. */
    val idxStep: Int = steps(inner) * strides(inner)
    /** Flat index of the current line's first point. */
    var base: Int = 0
    /** False once every line has been visited (or the lattice is empty). */
    var valid: Boolean = true
    locally {
      var k = 0
      while (k < dims.length) {
        if (starts(k) >= dims(k)) valid = false
        base += starts(k) * strides(k)
        k += 1
      }
    }

    def next(): Unit = {
      var k = dims.length - 1
      while (k >= 0) {
        if (k != inner) {
          coords(k) += steps(k)
          base += steps(k) * strides(k)
          if (coords(k) < dims(k)) return
          base -= (coords(k) - starts(k)) * strides(k)
          coords(k) = starts(k)
        }
        k -= 1
      }
      valid = false
    }
  }

  // Prediction stencils along one dimension (see `stencilAt`).
  private final val Copy = 0
  private final val Extrapolate = 1
  private final val Linear = 2
  private final val NotAKnot = 3
  private final val Natural = 4
  private final val SameLevelNotAKnot = 5
  private final val SameLevelNatural = 6

  /** The stencil for position p (stride s) along a dimension of extent n,
    * with boundary fallbacks: full stencil → linear → extrapolate → copy.
    */
  private def stencilAt(p: Int, n: Int, s: Int, kind: Spline.Kind, sameLevelStep: Boolean): Int =
    if (p + s >= n) { if (p - 3 * s >= 0) Extrapolate else Copy }
    else if (!kind.isCubic) Linear
    else if (sameLevelStep) {
      // p ≡ 3s (mod 4s): left neighbors at −s, −2s, −3s always exist.
      if (kind == Spline.Kind.Natural && p + 3 * s < n) SameLevelNatural
      else if (p + 2 * s < n) SameLevelNotAKnot
      else Linear
    } else if (p - 3 * s >= 0 && p + 3 * s < n) {
      if (kind == Spline.Kind.Natural) Natural else NotAKnot
    } else Linear

  /** Drives all levels and passes; subclasses consume each line's
    * predictions and write the reconstructed values into `data`.
    */
  private abstract class Traversal(protected final val data: Array[Double], plan: InterpPlan) {
    private val dims = plan.dims
    private val strides = GridData.strides(dims)
    private val nd = dims.length
    private val buf = new Array[Double](dims.max)
    // Block-wise spline override (Section 6.6): 0 = none.
    private val bs = if (plan.blockSize > 0 && plan.blockSplines.nonEmpty) plan.blockSize else 0
    private val bStrides =
      if (bs == 0) Array.emptyIntArray
      else {
        val a = new Array[Int](nd)
        a(nd - 1) = 1
        var k = nd - 2
        while (k >= 0) { a(k) = a(k + 1) * ((dims(k + 1) + bs - 1) / bs); k -= 1 }
        a
      }

    /** Called before each level's passes begin. */
    protected def startLevel(level: Int, eb: Double): Unit

    /** Consumes the predictions `pred(0 until m)` of the points
      * idx0 + i·step, in traversal order.
      */
    protected def line(pred: Array[Double], m: Int, idx0: Int, step: Int): Unit

    final def run(): Unit = {
      var level = plan.maxLevel
      while (level >= 1) {
        val s = 1 << (level - 1)
        val cfg = plan.levelConfigs(level - 1)
        startLevel(level, plan.levelEbs(level - 1))
        cfg.paradigm match {
          case Paradigm.OneD(order) => oneDLevel(order, s, cfg)
          case Paradigm.MultiDim    => multiDimLevel(s, cfg.spline)
        }
        level -= 1
      }
    }

    private def oneDLevel(order: Array[Int], s: Int, cfg: LevelConfig): Unit = {
      val useSameLevel = cfg.sameLevel && cfg.spline.isCubic
      var j = 0
      while (j < order.length) {
        val dim = order(j)
        if (s < dims(dim)) { // pass has points only if stride fits
          val starts = new Array[Int](nd)
          val steps = new Array[Int](nd)
          var k = 0
          while (k < nd) {
            if (k == plan.frozenDim) steps(k) = 1
            else if (k == dim) { starts(k) = s; steps(k) = 2 * s }
            else {
              val pos = order.indexOf(k)
              steps(k) = if (pos >= 0 && pos < j) s else 2 * s // earlier dim: done at stride s; later: still 2s
            }
            k += 1
          }
          if (useSameLevel) {
            // Step 1: positions ≡ s (mod 4s) — inter-level 4-point stencil.
            steps(dim) = 4 * s
            oneDPass(dim, s, starts, steps, cfg.spline, sameLevelStep = false)
            // Step 2: positions ≡ 3s (mod 4s) — same-level 6-point stencil.
            if (3 * s < dims(dim)) {
              starts(dim) = 3 * s
              oneDPass(dim, s, starts, steps, cfg.spline, sameLevelStep = true)
            }
          } else {
            oneDPass(dim, s, starts, steps, cfg.spline, sameLevelStep = false)
          }
        }
        j += 1
      }
    }

    /** One 1D-style pass along `dim` at stride `s`. FVFI walks lines along
      * the fastest-varying (last) dimension; the QoZ order walks them along
      * the interpolation dimension (Fig. 5).
      */
    private def oneDPass(dim: Int, s: Int, starts: Array[Int], steps: Array[Int],
                         spline: Spline.Kind, sameLevelStep: Boolean): Unit = {
      val inner = if (plan.fvfi) nd - 1 else dim
      val lines = new Lines(dims, strides, starts, steps, inner)
      val m = lines.length
      val alongLine = inner == dim
      while (lines.valid) {
        val p0 = if (alongLine) starts(dim) else lines.coords(dim)
        val pstep = if (alongLine) steps(dim) else 0
        var a = 0
        while (a < m) {
          val b = segmentEnd(a, m, starts(inner), steps(inner))
          val kind = segmentSpline(lines.coords, inner, starts(inner) + a * steps(inner), spline)
          addAlong(lines.base, lines.idxStep, a, b, p0, pstep, dims(dim), s, s * strides(dim),
            kind, sameLevelStep, 1.0, add = false)
          a = b
        }
        line(buf, m, lines.base, lines.idxStep)
        lines.next()
      }
    }

    /** Multi-dimensional passes: points with 1 odd coordinate first, then 2,
      * then 3, … (Section 5.3), each class in row-major order. Prediction is
      * the 1/σ²-weighted combination of the available 1-D interpolants (Eq. 9
      * with Eq. 12 weights), summed in ascending dimension order. Lines run
      * along the last dimension; a line's outer odd count decides whether
      * its even or its odd positions belong to the current class.
      */
    private def multiDimLevel(s: Int, spline: Spline.Kind): Unit = {
      val active = plan.activeDims
      val inner = nd - 1
      val innerActive = inner != plan.frozenDim
      val steps = Array.tabulate(nd)(k => if (k == plan.frozenDim) 1 else s)
      val odd = new Array[Boolean](nd)
      var target = 1
      while (target <= active.length) {
        val lines = new Lines(dims, strides, new Array[Int](nd), steps, inner)
        while (lines.valid) {
          var outerOdd = 0
          var a = 0
          while (a < active.length) {
            val k = active(a)
            odd(k) = k != inner && ((lines.coords(k) / s) & 1) == 1
            if (odd(k)) outerOdd += 1
            a += 1
          }
          // Inner positions of the current class: all (frozen inner), the
          // even multiples of s, or the odd ones.
          val q0 =
            if (!innerActive) { if (outerOdd == target) 0 else -1 }
            else if (outerOdd == target) 0
            else if (outerOdd == target - 1) s
            else -1
          if (q0 >= 0 && q0 < dims(inner)) {
            val qstep = if (innerActive) 2 * s else 1
            if (innerActive) odd(inner) = q0 == s
            val m = (dims(inner) - 1 - q0) / qstep + 1
            val idx0 = lines.base + q0 * strides(inner)
            val idxStep = qstep * strides(inner)
            var wsum = 0.0
            a = 0
            while (a < active.length) { val k = active(a); if (odd(k)) wsum += plan.dimWeights(k); a += 1 }
            java.util.Arrays.fill(buf, 0, m, 0.0)
            var lo = 0
            while (lo < m) {
              val hi = segmentEnd(lo, m, q0, qstep)
              val kind = segmentSpline(lines.coords, inner, q0 + lo * qstep, spline)
              a = 0
              while (a < active.length) {
                val k = active(a)
                if (odd(k)) {
                  if (k == inner)
                    addAlong(idx0, idxStep, lo, hi, q0, qstep, dims(k), s, s * strides(k), kind, false,
                      plan.dimWeights(k), add = true)
                  else
                    addAlong(idx0, idxStep, lo, hi, lines.coords(k), 0, dims(k), s, s * strides(k), kind, false,
                      plan.dimWeights(k), add = true)
                }
                a += 1
              }
              lo = hi
            }
            var i = 0
            while (i < m) {
              buf(i) = if (wsum > 0) buf(i) / wsum else data(idx0 + i * idxStep)
              i += 1
            }
            line(buf, m, idx0, idxStep)
          }
          lines.next()
        }
        target += 1
      }
    }

    /** End (exclusive) of the block-override segment that starts at point
      * `a` of a line whose inner coordinate is q0 + i·qstep.
      */
    private def segmentEnd(a: Int, m: Int, q0: Int, qstep: Int): Int =
      if (bs == 0) m
      else {
        val blockEnd = ((q0 + a * qstep) / bs + 1) * bs
        math.min(m, (blockEnd - q0 + qstep - 1) / qstep)
      }

    /** Spline of the block holding the line point at inner coordinate q. */
    private def segmentSpline(coords: Array[Int], inner: Int, q: Int, default: Spline.Kind): Spline.Kind =
      if (bs == 0) default
      else {
        var bid = (q / bs) * bStrides(inner)
        var k = 0
        while (k < nd) { if (k != inner) bid += (coords(k) / bs) * bStrides(k); k += 1 }
        Spline.Kind.all(plan.blockSplines(bid))
      }

    /** Adds w · (1-D prediction along one dimension) to buf(a until b), or
      * without `add` stores the prediction there (a 1-D pass, whose points
      * each have one), for the points idx0 + i·idxStep whose coordinate
      * along that dimension is p0 + i·pstep (pstep = 0 when the line
      * crosses the dimension). Points without the full stencil are peeled
      * off one at a time; the rest run through one full-stencil loop.
      */
    private def addAlong(idx0: Int, idxStep: Int, a: Int, b: Int, p0: Int, pstep: Int, n: Int, s: Int,
                         off: Int, kind: Spline.Kind, sameLevelStep: Boolean, w: Double, add: Boolean): Unit =
      if (pstep == 0) stencilRun(stencilAt(p0, n, s, kind, sameLevelStep), idx0, idxStep, a, b, off, w, add)
      else {
        val full =
          if (!kind.isCubic) Linear
          else if (!sameLevelStep) { if (kind == Spline.Kind.Natural) Natural else NotAKnot }
          else if (kind == Spline.Kind.Natural) SameLevelNatural
          else SameLevelNotAKnot
        // Reach of the full stencil to the left and right, in strides (the
        // left neighbours of a linear or same-level point always exist).
        val left = if (full == Natural || full == NotAKnot) 3 else 0
        val right = if (full == Linear) 1 else if (full == SameLevelNotAKnot) 2 else 3
        var lo = a
        while (lo < b && p0 + lo * pstep < left * s) {
          stencilRun(stencilAt(p0 + lo * pstep, n, s, kind, sameLevelStep), idx0, idxStep, lo, lo + 1, off, w, add)
          lo += 1
        }
        var hi = b
        while (hi > lo && p0 + (hi - 1) * pstep + right * s >= n) hi -= 1
        stencilRun(full, idx0, idxStep, lo, hi, off, w, add)
        var i = hi
        while (i < b) {
          stencilRun(stencilAt(p0 + i * pstep, n, s, kind, sameLevelStep), idx0, idxStep, i, i + 1, off, w, add)
          i += 1
        }
      }

    /** buf(i) += w · stencil prediction at idx0 + i·idxStep for i in [a, b),
      * or without `add` buf(i) = the prediction; `off` is the flat-index
      * distance of one stride s.
      */
    private def stencilRun(stencil: Int, idx0: Int, idxStep: Int, a: Int, b: Int, off: Int, w: Double,
                           add: Boolean): Unit = {
      val d = data
      def put(i: Int, p: Double): Unit = if (add) buf(i) += w * p else buf(i) = p
      var i = a
      var idx = idx0 + a * idxStep
      (stencil: @switch) match {
        case Copy =>
          while (i < b) { put(i, d(idx - off)); i += 1; idx += idxStep }
        case Extrapolate =>
          while (i < b) { put(i, Spline.extrapolate(d(idx - 3 * off), d(idx - off))); i += 1; idx += idxStep }
        case Linear =>
          while (i < b) { put(i, Spline.linear(d(idx - off), d(idx + off))); i += 1; idx += idxStep }
        case NotAKnot =>
          while (i < b) {
            put(i, Spline.notAKnot(d(idx - 3 * off), d(idx - off), d(idx + off), d(idx + 3 * off)))
            i += 1; idx += idxStep
          }
        case Natural =>
          while (i < b) {
            put(i, Spline.natural(d(idx - 3 * off), d(idx - off), d(idx + off), d(idx + 3 * off)))
            i += 1; idx += idxStep
          }
        case SameLevelNotAKnot =>
          while (i < b) {
            put(i, Spline.sameLevelNotAKnot(d(idx - 2 * off), d(idx - off), d(idx + off), d(idx + 2 * off)))
            i += 1; idx += idxStep
          }
        case SameLevelNatural =>
          while (i < b) {
            put(i, Spline.sameLevelNatural(d(idx - 3 * off), d(idx - 2 * off), d(idx - off),
              d(idx + off), d(idx + 2 * off), d(idx + 3 * off)))
            i += 1; idx += idxStep
          }
      }
    }
  }
}
