package repro.svd

import repro.core._

/** TTHRESH-like HOSVD (Tucker) compressor (Ballester-Ripoll et al., TVCG
  * 2019) — the paper's dimension-reduction-based high-ratio archetype.
  *
  * Pipeline: per-mode Gram matrices → Jacobi eigendecomposition → full
  * core via mode products with Uᵀ → core thresholding (energy budget from
  * the bound; HOSVD is orthonormal, so dropped-energy ⇒ RMSE) → rank
  * truncation to the bounding box of surviving coefficients → core
  * quantization + entropy coding → fp32 truncated factors. Because
  * TTHRESH natively targets RMSE, an outlier-correction pass is appended
  * so the point-wise bound of the paper's same-ε comparisons holds
  * (documented deviation, DESIGN.md §6).
  *
  * The two full mode-product sweeps dominate the cost — this is the
  * slowest compressor of the suite, as in the paper's Table 2.
  */
final class TthreshLike extends Compressor {

  override def name: String = "TTHRESH"

  override def compress(grid: GridData, absEb: Double): Array[Byte] = {
    require(absEb > 0, "absolute error bound must be positive")
    val nd = grid.ndim
    require(nd >= 2 && nd <= 3, s"TthreshLike supports 2-3 dimensions, got $nd")
    val dims = grid.dims

    // Factor matrices from per-mode Gram eigen-decompositions.
    val factors: Array[Array[Array[Double]]] = Array.tabulate(nd) { mode =>
      Jacobi.eigen(gram(grid, mode)).vectors
    }

    // Core = X ×_k U_kᵀ for all modes.
    var core = grid.data.clone()
    val curDims = dims.clone()
    for (mode <- 0 until nd)
      core = modeProduct(core, curDims, mode, factors(mode), transpose = true)

    // Threshold: drop smallest coefficients until the dropped energy hits
    // the RMSE budget (absEb/2)², leaving absEb/2 for quantization.
    val n = core.length
    val budget = n.toDouble * (absEb / 2) * (absEb / 2)
    val mags = core.map(math.abs).sorted
    var dropped = 0.0
    var ti = 0
    while (ti < n && dropped + mags(ti) * mags(ti) <= budget) {
      dropped += mags(ti) * mags(ti)
      ti += 1
    }
    val tau = if (ti == 0) 0.0 else mags(ti - 1)
    // Quantization step: L2 error of uniform quantization is step/√12 per
    // coefficient; step = absEb keeps total well inside the remaining budget.
    val step = absEb
    val codes = new Array[Int](n)
    var i = 0
    while (i < n) {
      val c = core(i)
      codes(i) =
        if (math.abs(c) <= tau) 0
        else {
          val q = math.rint(c / step)
          math.max(Int.MinValue.toDouble, math.min(Int.MaxValue.toDouble, q)).toInt
        }
      i += 1
    }

    // Bounding ranks of surviving coefficients.
    val ranks = boundingRanks(codes, dims)

    // Reconstruct for the outlier pass USING THE fp32-ROUNDED factors that
    // will be serialized — the decompressor must replay bit-identically,
    // or the corrections would not guarantee the bound.
    val f32: Array[Array[Array[Double]]] = Array.tabulate(nd)(mode =>
      Array.tabulate(dims(mode), ranks(mode))((i, r) => factors(mode)(i)(r).toFloat.toDouble))
    val coreBox = extractBox(codes, dims, ranks)
    val recon = reconstruct(coreBox, dims, ranks, f32, step)
    val corrections = OutlierCorrection.encode(grid.data, recon, absEb)

    // Serialize: dims, eb, step, ranks, truncated core codes, fp32 factors.
    val w = new ByteWriter()
    w.writeVarInt(nd.toLong)
    dims.foreach(d => w.writeVarInt(d.toLong))
    w.writeDouble(absEb)
    w.writeDouble(step)
    ranks.foreach(r => w.writeVarInt(r.toLong))
    w.writeBlob(CoeffCodec.encode(coreBox))
    for (mode <- 0 until nd) {
      var r = 0
      while (r < ranks(mode)) {
        var row = 0
        while (row < dims(mode)) { w.writeFloat(factors(mode)(row)(r).toFloat); row += 1 }
        r += 1
      }
    }
    w.writeBlob(corrections)
    Lossless.compress(w.toBytes)
  }

  override def decompress(bytes: Array[Byte]): GridData = {
    val r = new ByteReader(Lossless.decompress(bytes))
    val nd = r.readVarInt().toInt
    val dims = Array.fill(nd)(r.readVarInt().toInt)
    val absEb = r.readDouble()
    val step = r.readDouble()
    val ranks = Array.fill(nd)(r.readVarInt().toInt)
    val coreBox = CoeffCodec.decode(r.readBlob())
    val factors: Array[Array[Array[Double]]] = Array.tabulate(nd) { mode =>
      val u = Array.ofDim[Double](dims(mode), ranks(mode))
      var rr = 0
      while (rr < ranks(mode)) {
        var row = 0
        while (row < dims(mode)) { u(row)(rr) = r.readFloat().toDouble; row += 1 }
        rr += 1
      }
      u
    }
    val corrections = r.readBlob()
    val recon = reconstruct(coreBox, dims, ranks, factors, step)
    OutlierCorrection.apply(recon, corrections, absEb)
    new GridData(dims, recon)
  }

  // ---------------------------------------------------------------------

  /** Gram matrix of the mode-`mode` unfolding: G = A Aᵀ (n_mode × n_mode). */
  private def gram(grid: GridData, mode: Int): Array[Array[Double]] = {
    val nm = grid.dims(mode)
    val g = Array.ofDim[Double](nm, nm)
    val stride = grid.strides(mode)
    val n = grid.size
    // iterate "columns": positions with coordinate 0 along `mode`
    var idx = 0
    val vec = new Array[Double](nm)
    while (idx < n) {
      val cm = (idx / stride) % nm
      if (cm == 0) {
        var i = 0
        while (i < nm) { vec(i) = grid.data(idx + i * stride); i += 1 }
        var i2 = 0
        while (i2 < nm) {
          val vi = vec(i2)
          var j = i2
          while (j < nm) { g(i2)(j) += vi * vec(j); j += 1 }
          i2 += 1
        }
      }
      idx += 1
    }
    var i = 0
    while (i < nm) { var j = 0; while (j < i) { g(i)(j) = g(j)(i); j += 1 }; i += 1 }
    g
  }

  /** Mode product Y = X ×_mode M (or Mᵀ): contracts each mode-`mode`
    * fiber of X with M. `m` is indexed (row, col) = (dim index, eigenvector index);
    * transpose=true computes Σ_i M(i)(r) x_i (projection onto basis),
    * transpose=false computes Σ_r M(i)(r) c_r (synthesis).
    */
  private def modeProduct(x: Array[Double], curDims: Array[Int], mode: Int,
                          m: Array[Array[Double]], transpose: Boolean): Array[Double] = {
    val nIn = curDims(mode)
    val outDims = curDims.clone(); outDims(mode) = if (transpose) m(0).length else m.length
    val inGrid = new GridData(curDims, x)
    val stride = inGrid.strides(mode)
    val outSize = outDims.map(_.toLong).product.toInt
    val out = new Array[Double](outSize)
    val outGrid = new GridData(outDims, out)
    val outStride = outGrid.strides(mode)
    // enumerate fibers by iterating all indices with coord(mode) == 0
    val n = x.length
    var idx = 0
    val inVec = new Array[Double](nIn)
    val nOutLen = outDims(mode)
    while (idx < n) {
      val cm = (idx / stride) % nIn
      if (cm == 0) {
        var i = 0
        while (i < nIn) { inVec(i) = x(idx + i * stride); i += 1 }
        // matching output base index: same coords, mode coord 0
        val ob = outBaseFor(idx, inGrid, outGrid, mode)
        var r = 0
        while (r < nOutLen) {
          var acc = 0.0
          var i2 = 0
          while (i2 < nIn) {
            acc += (if (transpose) m(i2)(r) else m(r)(i2)) * inVec(i2)
            i2 += 1
          }
          out(ob + r * outStride) = acc
          r += 1
        }
      }
      idx += 1
    }
    curDims(mode) = outDims(mode)
    out
  }

  /** Maps a fiber-base flat index from the input layout to the output
    * layout (they differ only in the extent of `mode`).
    */
  private def outBaseFor(idx: Int, in: GridData, outG: GridData, mode: Int): Int = {
    var rem = idx
    var ob = 0
    var k = 0
    while (k < in.ndim) {
      val c = rem / in.strides(k)
      rem %= in.strides(k)
      ob += c * outG.strides(k)
      k += 1
    }
    ob
  }

  private def boundingRanks(codes: Array[Int], dims: Array[Int]): Array[Int] = {
    val nd = dims.length
    val strides = GridData.strides(dims)
    val ranks = new Array[Int](nd)
    var i = 0
    while (i < codes.length) {
      if (codes(i) != 0) {
        var rem = i
        var k = 0
        while (k < nd) {
          val c = rem / strides(k)
          rem %= strides(k)
          if (c + 1 > ranks(k)) ranks(k) = c + 1
          k += 1
        }
      }
      i += 1
    }
    // at least rank 1 so the DC survives
    (0 until nd).foreach(k => if (ranks(k) == 0) ranks(k) = 1)
    ranks
  }

  private def extractBox(codes: Array[Int], dims: Array[Int], ranks: Array[Int]): Array[Int] = {
    val strides = GridData.strides(dims)
    val boxStrides = GridData.strides(ranks)
    val out = new Array[Int](ranks.map(_.toLong).product.toInt)
    var o = 0
    while (o < out.length) {
      var rem = o
      var idx = 0
      var k = 0
      while (k < dims.length) { idx += rem / boxStrides(k) * strides(k); rem %= boxStrides(k); k += 1 }
      out(o) = codes(idx)
      o += 1
    }
    out
  }

  /** Synthesis: the dequantized core box (`ranks` extents) expanded
    * through the factor matrices back to the full grid.
    */
  private def reconstruct(coreBox: Array[Int], dims: Array[Int], ranks: Array[Int],
                          factors: Array[Array[Array[Double]]], step: Double): Array[Double] = {
    val nd = dims.length
    var cur = coreBox.map(_.toDouble * step)
    val curDims = ranks.clone()
    for (mode <- 0 until nd) {
      // synthesis with truncated factor (dims(mode) × ranks(mode))
      val m = Array.tabulate(dims(mode), curDims(mode))((i, r) => factors(mode)(i)(r))
      cur = modeProduct(cur, curDims, mode, m, transpose = false)
    }
    cur
  }
}

object TthreshLike { def apply(): TthreshLike = new TthreshLike }
