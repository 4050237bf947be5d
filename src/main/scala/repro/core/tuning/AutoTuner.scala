package repro.core.tuning

import repro.core._
import repro.core.interp._
import repro.core.lorenzo.Lorenzo

/** The HPEZ auto-tuning module (Section 6, Fig. 7), parameterized by a
  * feature set so the SZ3-like and QoZ-like baselines reuse the same
  * machinery with their historical subsets of features.
  *
  * Pipeline (Fig. 7): data sampling & statistical analysis → global
  * interpolation tuning (per level) with/without dynamic dimension
  * freezing → interpolation error-bound tuning (α/β, Eq. 15) → Lorenzo
  * tuning → block-wise interpolation tuning.
  */
object AutoTuner {

  /** Optimization target for the quality-metric-driven tuning (Eq. 1). */
  sealed trait Target
  object Target {
    /** Maximize compression ratio under the error bound. */
    case object CR extends Target
    /** Optimize the rate-PSNR trade-off. */
    case object PSNR extends Target
  }

  /** Which tuning features a compressor enables (HPEZ = all on). */
  final case class Features(
      splines: Seq[Spline.Kind],
      allowMultiDim: Boolean,
      allowSameLevel: Boolean,
      allowFreezing: Boolean,
      allowLorenzo: Boolean,
      allowBlockwise: Boolean,
      ebTuning: Boolean,
      anchorStride: Int, // 0 = SZ3-style (single-corner "anchor", i.e. stride >= max dim)
      fvfi: Boolean,
  )

  object Features {
    /** Full HPEZ feature set. */
    val hpez: Features = Features(
      splines = Seq(Spline.Kind.Linear, Spline.Kind.NotAKnot, Spline.Kind.Natural),
      allowMultiDim = true, allowSameLevel = true, allowFreezing = true,
      allowLorenzo = true, allowBlockwise = true, ebTuning = true,
      anchorStride = 32, fvfi = true)

    /** QoZ 1.1: anchors + per-level selection + α/β tuning; no natural
      * spline, no multi-dim, no same-level, no freezing, no Lorenzo, no
      * block-wise tuning, QoZ traversal order (Section 6.5 notes QoZ
      * excluded Lorenzo; Section 5 lists the rest as new in HPEZ).
      */
    val qoz: Features = Features(
      splines = Seq(Spline.Kind.Linear, Spline.Kind.NotAKnot),
      allowMultiDim = false, allowSameLevel = false, allowFreezing = false,
      allowLorenzo = false, allowBlockwise = false, ebTuning = true,
      anchorStride = 32, fvfi = false)

    /** SZ3.1: no anchors (full hierarchy from the corner), uniform level
      * error bound, per-level linear/cubic selection, Lorenzo alternative.
      */
    val sz3: Features = Features(
      splines = Seq(Spline.Kind.Linear, Spline.Kind.NotAKnot),
      allowMultiDim = false, allowSameLevel = false, allowFreezing = false,
      allowLorenzo = true, allowBlockwise = false, ebTuning = false,
      anchorStride = 0, fvfi = false)
  }

  /** Tuning outcome: either a Lorenzo order or a full interpolation plan.
    * The PSNR estimate reads the grid's value range on first use. */
  final case class Result(useLorenzo: Boolean, lorenzoOrder: Int, plan: InterpPlan,
                          estBits: Double, estMse: Double)(range: => Double) {
    lazy val estPsnr: Double = psnr(estMse, range)
  }

  /** PSNR of a reconstruction MSE on a grid whose value range is `range`. */
  private def psnr(reconMse: Double, range: Double): Double =
    if (reconMse <= 0) 999.0 else 20 * math.log10(range) - 10 * math.log10(reconMse)

  /** α/β candidates explored by the error-bound tuning (Eq. 15),
    * following QoZ's small discrete search space.
    */
  val AlphaBetaCandidates: Seq[(Double, Double)] = Seq(
    (1.0, 1.0), (1.25, 1.5), (1.25, 2.0), (1.5, 2.0), (1.5, 3.0), (2.0, 4.0))

  /** Bit-rate estimation penalty for the Lorenzo predictor (Section 6.5:
    * "a multiplicative coefficient is applied to adjust the bit rate
    * estimation of the Lorenzo predictor", following FAZ).
    */
  val LorenzoBitPenalty: Double = 1.2

  /** Runs the full tuning pipeline on `grid` for absolute bound `absEb`. */
  def tune(grid: GridData, absEb: Double, features: Features, target: Target): Result = {
    val nd = grid.ndim
    val n = grid.size.toLong
    lazy val range = { val r = grid.valueRange; if (r > 0) r else 1.0 }
    // Rate-distortion scalarization: one bit/point is worth ~6.02 dB for an
    // ideal coder, so the PSNR target maximizes psnr − 6.02·bpp.
    def score(bits: Double, mse: Double): Double = target match {
      case Target.CR   => -bits
      case Target.PSNR => psnr(mse, range) - 6.02 * bits / n
    }
    val work = new TrialWork

    val stats = Sampling.dimStats(grid)
    val block = Sampling.sampleBlock(grid)

    val anchorStride =
      if (features.anchorStride > 0) features.anchorStride
      else {
        var s = 2
        while (s < grid.dims.max) s *= 2
        s
      }
    val maxLevel = Integer.numberOfTrailingZeros(anchorStride)

    // ----- global interpolation tuning, with and without dimension freezing.
    // The freezing trial is only worth running when the sampled statistics
    // show real anisotropy — on near-isotropic data the stride-1 anchor
    // overhead cannot pay off, so the trial is skipped to keep HPEZ in the
    // high-performance speed class.
    val anisotropic = stats.sigma2.max > 4.0 * stats.sigma2.min
    val freezeOptions: Seq[Int] =
      if (features.allowFreezing && nd >= 2 && anisotropic) Seq(-1, stats.roughestDim)
      else Seq(-1)

    final case class Tuned(frozen: Int, configs: Array[LevelConfig], ebs: Array[Double],
                           estBitsFull: Double, estMse: Double)

    val tunedOptions = freezeOptions.map { frozen =>
      val activeDims = (0 until nd).filterNot(_ == frozen).toArray
      val candidates = levelCandidates(features, activeDims)
      // Trial every candidate (uniform eb) on the sample block; pick the
      // best candidate per level by mean absolute prediction error (§6.2).
      val perCand = candidates.map { cfg =>
        (cfg, LevelInterp.trial(block, blockPlan(block.dims, frozen, cfg, absEb, features.fvfi, stats.dimWeights),
          encode = false, work))
      }
      val chosen: Array[LevelConfig] = Array.tabulate(maxLevel) { li =>
        val l = math.min(li, TrialLevels - 1) // higher levels reuse the top trial level's choice
        perCand.minBy { case (_, ts) =>
          if (ts.perLevelCnt(l) == 0) Double.PositiveInfinity else ts.perLevelAbs(l) / ts.perLevelCnt(l)
        }._1
      }

      // ----- error-bound tuning (Eq. 15) on the chosen per-level configs
      val abCands = if (features.ebTuning) AlphaBetaCandidates else Seq((1.0, 1.0))
      val plan0 = blockPlan(block.dims, frozen, chosen.head, absEb, features.fvfi, stats.dimWeights)
      val anchorsFull = LevelInterp.countAnchors(grid.dims, anchorStride, frozen)
      val abResults = abCands.map { case (alpha, beta) =>
        val plan = plan0.copy(
          levelConfigs = Array.tabulate(plan0.maxLevel)(li => chosen(math.min(li, maxLevel - 1))),
          levelEbs = InterpPlan.levelEbs(absEb, alpha, beta, plan0.maxLevel))
        val ts = LevelInterp.trial(block, plan, encode = true, work)
        val pts = ts.nPredicted
        val bpp = if (pts == 0) 32.0 else ts.estPayloadBits / pts
        val estBitsFull = bpp * (n - anchorsFull) + LinearQuantizer.SideValueBits * anchorsFull
        ((alpha, beta), estBitsFull, if (pts == 0) 0 else ts.sumSqRecon / pts)
      }
      val best = abResults.maxBy { case (_, b, mse) => score(b, mse) }
      val (alpha, beta) = best._1
      Tuned(frozen, chosen, InterpPlan.levelEbs(absEb, alpha, beta, maxLevel), best._2, best._3)
    }

    val bestTuned = tunedOptions.maxBy(t => score(t.estBitsFull, t.estMse))

    // ----- Lorenzo tuning (Section 6.5)
    val lorenzoChoice: Option[(Int, Double, Double)] =
      if (!features.allowLorenzo) None
      else {
        val byOrder = Seq(1, 2).map { o =>
          val t = Lorenzo.trial(block, absEb, o, work)
          val pts = t.nPredicted
          val bits = t.estPayloadBits * LorenzoBitPenalty
          val mse = if (pts == 0) 0 else t.reconMse * t.nPredicted / pts
          val bpp = if (pts == 0) 32.0 else bits / pts
          (o, bpp * n, mse)
        }
        Some(byOrder.maxBy { case (_, b, mse) => score(b, mse) })
      }

    val interpScore = score(bestTuned.estBitsFull, bestTuned.estMse)
    val useLorenzo = lorenzoChoice.exists { case (_, b, mse) => score(b, mse) > interpScore }

    // ----- assemble the final plan. dimWeights MUST be rounded to fp32
    // here: the plan header stores them as floats, and the decompressor's
    // multi-dimensional predictions must be bit-identical to ours.
    var plan = InterpPlan(grid.dims.clone(), anchorStride, bestTuned.frozen,
      bestTuned.configs, bestTuned.ebs, stats.dimWeights.map(_.toFloat.toDouble),
      features.fvfi, 0, Array.emptyByteArray)

    if (!useLorenzo && features.allowBlockwise)
      plan = blockwiseTune(grid, plan, absEb, features, work)

    lorenzoChoice match {
      case Some((order, b, mse)) if useLorenzo => Result(useLorenzo = true, order, plan, b, mse)(range)
      case _ => Result(useLorenzo = false, 0, plan, bestTuned.estBitsFull, bestTuned.estMse)(range)
    }
  }

  /** Candidate per-level configurations for the global tuning (§6.2); 1D-style
    * candidates try both dimension orders.
    */
  private def levelCandidates(features: Features, activeDims: Array[Int]): Seq[LevelConfig] = {
    val orders = if (activeDims.length > 1) Seq(activeDims, activeDims.reverse) else Seq(activeDims)
    features.splines.flatMap { spline =>
      val oneD = for {
        o <- orders
        sl <- if (features.allowSameLevel && spline.isCubic) Seq(false, true) else Seq(false)
      } yield LevelConfig(spline, Paradigm.OneD(o), sl)
      val multi =
        if (features.allowMultiDim && activeDims.length > 1)
          Seq(LevelConfig(spline, Paradigm.MultiDim, sameLevel = false))
        else Seq.empty
      oneD ++ multi
    }
  }

  /** Levels a trial on the sample block observes: its anchor stride is the block's side. */
  private val TrialLevels = Integer.numberOfTrailingZeros(Sampling.BlockSide)

  /** Plan for a tuning trial on the sample block. */
  private def blockPlan(dims: Array[Int], frozen: Int, cfg: LevelConfig, eb: Double,
                        fvfi: Boolean, weights: Array[Double]): InterpPlan =
    InterpPlan(dims, Sampling.BlockSide, if (frozen >= dims.length) -1 else frozen,
      Array.fill(TrialLevels)(cfg), Array.fill(TrialLevels)(eb), weights, fvfi, 0, Array.emptyByteArray)

  /** Block-wise interpolation tuning (Section 6.6): per 32-sided block,
    * trial-compress a centered sub-block (~1/3 side) with each spline
    * candidate and store the winner as a per-block override.
    */
  def blockwiseTune(grid: GridData, plan: InterpPlan, absEb: Double,
                    features: Features, work: TrialWork = new TrialWork): InterpPlan = {
    val bs = 32
    val nd = grid.ndim
    val bDims = grid.dims.map(d => (d + bs - 1) / bs)
    val nBlocks = bDims.product
    if (nBlocks <= 1) return plan
    val out = new Array[Byte](nBlocks)
    val candidates = features.splines.toArray
    // The sub-block and its candidate plans, rebuilt when its extents change.
    var sub: GridData = null
    var subPlans: Array[InterpPlan] = null
    val bc = new Array[Int](nd)
    val origin = new Array[Int](nd)
    val ext = new Array[Int](nd)
    var bid = 0
    while (bid < nBlocks) {
      var rem = bid; var k = 0
      while (k < nd) {
        val st = bDims.drop(k + 1).product
        bc(k) = rem / st; rem %= st
        k += 1
      }
      k = 0
      while (k < nd) {
        val blockLo = bc(k) * bs
        val blockHi = math.min(blockLo + bs, grid.dims(k))
        val side = math.max(4, math.min(11, blockHi - blockLo)) // ~(4%)^(1/3) of a 32-block
        origin(k) = blockLo + math.max(0, (blockHi - blockLo - side) / 2)
        ext(k) = math.min(side, blockHi - origin(k))
        k += 1
      }
      if (sub == null || !(sub.dims sameElements ext)) {
        sub = new GridData(ext.clone(), new Array[Double](ext.product))
        subPlans = candidates.map(cand => InterpPlan(sub.dims, plan.anchorStride, plan.frozenDim,
          plan.levelConfigs.map(_.copy(spline = cand)), plan.levelEbs, plan.dimWeights, plan.fvfi, 0,
          Array.emptyByteArray))
      }
      grid.sliceInto(origin, sub)
      var bestI = -1
      var bestErr = Double.PositiveInfinity
      var globalErr = Double.PositiveInfinity
      val globalSpline = plan.levelConfigs.head.spline
      var ci = 0
      while (ci < candidates.length) {
        val ts = LevelInterp.trial(sub, subPlans(ci), encode = false, work)
        if (ts.meanAbsErr < bestErr) { bestErr = ts.meanAbsErr; bestI = ci }
        if (candidates(ci) == globalSpline) globalErr = ts.meanAbsErr
        ci += 1
      }
      // Override only on a significant local win: gratuitous per-block
      // spline mixing degrades the Zstd stage's compressibility.
      out(bid) =
        if (bestErr < globalErr * 0.95) candidates(bestI).id.toByte
        else globalSpline.id.toByte
      bid += 1
    }
    // If no block ended up overriding the global spline, skip the feature.
    if (out.forall(_ == plan.levelConfigs.head.spline.id.toByte)) plan
    else plan.copy(blockSize = bs, blockSplines = out)
  }
}
