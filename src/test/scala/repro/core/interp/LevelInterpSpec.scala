package repro.core.interp

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGrids
import repro.core.{GridData, Metrics, TrialWork}

class LevelInterpSpec extends AnyFunSuite {

  private val allConfigs: Seq[LevelConfig] = {
    val active3 = Array(0, 1, 2)
    Seq(
      LevelConfig(Spline.Kind.Linear, Paradigm.OneD(active3), sameLevel = false),
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(active3), sameLevel = false),
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(active3.reverse), sameLevel = false),
      LevelConfig(Spline.Kind.Natural, Paradigm.OneD(active3), sameLevel = false),
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(active3), sameLevel = true),
      LevelConfig(Spline.Kind.Natural, Paradigm.OneD(active3), sameLevel = true),
      LevelConfig(Spline.Kind.Linear, Paradigm.MultiDim, sameLevel = false),
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false),
      LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false),
    )
  }

  private def roundTrip(grid: GridData, plan: InterpPlan, eb: Double): GridData = {
    val work = grid.copyGrid
    val res = LevelInterp.compressWith(work, plan)
    val back = LevelInterp.decompressWith(plan, res.codes, res.outliers, res.anchors)
    // decompression must EXACTLY equal the compressor's reconstruction
    assert(back.data.toSeq == work.data.toSeq, "decompression != compressor reconstruction")
    // and must satisfy the bound against the original
    val maxErr = Metrics.maxAbsError(grid.data, back.data)
    assert(maxErr <= eb + 1e-12, s"bound violated: $maxErr > $eb for plan $plan")
    back
  }

  test("every 3-D config round-trips within the bound (fvfi on/off)") {
    val g = TestGrids.smooth3D()
    val eb = 1e-3
    for (cfg <- allConfigs; fvfi <- Seq(true, false)) {
      val plan = InterpPlan.uniform(g.dims, 32, cfg, eb, fvfi)
      roundTrip(g, plan, eb)
    }
  }

  test("total predicted points + anchors == grid size") {
    val g = TestGrids.smooth3D(17, 19, 23) // awkward primes
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false), 1e-3)
    val res = LevelInterp.compressWith(g.copyGrid, plan)
    assert(res.codes.length + res.anchors.length == g.size)
  }

  test("multi-dim paradigm covers all points too") {
    val g = TestGrids.smooth3D(17, 19, 23)
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false), 1e-3)
    val res = LevelInterp.compressWith(g.copyGrid, plan)
    assert(res.codes.length + res.anchors.length == g.size)
    roundTrip(g, plan, 1e-3)
  }

  test("same-level split covers all points") {
    val g = TestGrids.smooth3D(33, 16, 9)
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.Natural, Paradigm.OneD(Array(0, 1, 2)), sameLevel = true), 1e-3)
    val res = LevelInterp.compressWith(g.copyGrid, plan)
    assert(res.codes.length + res.anchors.length == g.size)
    roundTrip(g, plan, 1e-3)
  }

  test("2-D grids round-trip") {
    val g = TestGrids.smooth2D()
    for (p <- Seq(Paradigm.OneD(Array(0, 1)): Paradigm, Paradigm.MultiDim)) {
      val plan = InterpPlan.uniform(g.dims, 32,
        LevelConfig(Spline.Kind.NotAKnot, p, sameLevel = false), 1e-4)
      roundTrip(g, plan, 1e-4)
    }
  }

  test("1-D grids round-trip") {
    val g = TestGrids.smooth1D()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0)), sameLevel = true), 1e-4)
    roundTrip(g, plan, 1e-4)
  }

  test("frozen dimension round-trips and stores stride-1 anchors") {
    val g = TestGrids.roughDim0()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(1, 2)), sameLevel = false),
      1e-3, fvfi = true, frozenDim = 0)
    val res = LevelInterp.compressWith(g.copyGrid, plan)
    // anchors: full dim0 × anchor lattice on dims 1,2
    assert(res.anchors.length == g.dims(0) * 1 * 1)
    roundTrip(g, plan, 1e-3)
  }

  test("frozen dim massively reduces quantization entropy on rough-dim data") {
    val g = TestGrids.roughDim0()
    val eb = 1e-4
    val cfgU = LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false)
    val cfgF = LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(1, 2)), sameLevel = false)
    val tNo = LevelInterp.trial(g, InterpPlan.uniform(g.dims, 32, cfgU, eb))
    val tFr = LevelInterp.trial(g, InterpPlan.uniform(g.dims, 32, cfgF, eb, fvfi = true, frozenDim = 0))
    assert(tFr.meanAbsErr < tNo.meanAbsErr / 5,
      s"freezing should slash prediction error: ${tFr.meanAbsErr} vs ${tNo.meanAbsErr}")
  }

  test("anchors are lossless") {
    val g = TestGrids.smooth3D()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.Linear, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false), 0.5)
    val back = roundTrip(g, plan, 0.5)
    // anchor positions must be exact
    for (i <- 0 until g.dims(0) by 32; j <- 0 until g.dims(1) by 32; k <- 0 until g.dims(2) by 32)
      assert(back(Array(i, j, k)) == g(Array(i, j, k)))
  }

  test("per-level error bounds are respected (higher level tighter)") {
    val g = TestGrids.smooth3D()
    val e = 1e-2
    val ebs = InterpPlan.levelEbs(e, 2.0, 4.0, 5)
    assert(ebs(0) == e)           // level 1: global bound
    assert(ebs(4) == e / 4.0)     // level 5: capped by beta
    val cfg = LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false)
    val plan = InterpPlan(g.dims, 32, -1, Array.fill(5)(cfg), ebs,
      Array.fill(3)(1.0 / 3), fvfi = true, 0, Array.emptyByteArray)
    roundTrip(g, plan, e) // global bound still holds (level ebs are all <= e)
  }

  test("block-wise spline override round-trips") {
    val g = TestGrids.smooth3D(40, 40, 40)
    val cfg = LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false)
    val bDims = g.dims.map(d => (d + 31) / 32)
    val blockSplines = Array.tabulate[Byte](bDims.product)(i => (i % 3).toByte)
    val plan = InterpPlan.uniform(g.dims, 32, cfg, 1e-3)
      .copy(blockSize = 32, blockSplines = blockSplines)
    roundTrip(g, plan, 1e-3)
  }

  test("noise input: bound still holds, outliers absorbed") {
    val g = TestGrids.noise3D()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false), 1e-5)
    roundTrip(g, plan, 1e-5)
  }

  test("constant input: zero prediction error everywhere") {
    val g = TestGrids.const3D()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false), 1e-6)
    val res = LevelInterp.compressWith(g.copyGrid, plan)
    assert(res.outliers.isEmpty)
    assert(res.codes.forall(_ == LevelInterp.Radius)) // all exact
  }

  test("fvfi and non-fvfi produce identical codes (order differs only in memory walk)") {
    // For the 1D paradigm along the LAST dim only, traversal order does not
    // change the set/order of predictions... in general orders differ, so
    // we instead check both satisfy the bound and produce the same ratio
    // class of outputs (same code multiset for a separable smooth field).
    val g = TestGrids.smooth3D(16, 16, 16)
    val cfg = LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false)
    val p1 = InterpPlan.uniform(g.dims, 32, cfg, 1e-3, fvfi = true)
    val p2 = InterpPlan.uniform(g.dims, 32, cfg, 1e-3, fvfi = false)
    val r1 = LevelInterp.compressWith(g.copyGrid, p1)
    val r2 = LevelInterp.compressWith(g.copyGrid, p2)
    assert(r1.codes.length == r2.codes.length)
    assert(r1.codes.sorted.toSeq == r2.codes.sorted.toSeq)
  }

  test("trial stats are consistent with compression") {
    val g = TestGrids.smooth3D()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false), 1e-3)
    val t = LevelInterp.trial(g, plan)
    val res = LevelInterp.compressWith(g.copyGrid, plan)
    assert(t.nPredicted == res.codes.length)
    assert(t.nAnchors == res.anchors.length)
    assert(t.perLevelCnt.sum == t.nPredicted)
    assert(t.meanAbsErr >= 0)
    assert(t.totalBits > 0)
  }

  test("a trial without encoding has the same error statistics and no size estimate") {
    val g = TestGrids.smooth3D()
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false), 1e-3)
    val full = LevelInterp.trial(g, plan)
    val stats = LevelInterp.trial(g, plan, encode = false)
    assert(stats.estPayloadBits.isNaN)
    assert(stats.copy(estPayloadBits = full.estPayloadBits, perLevelAbs = null, perLevelCnt = null) ==
      full.copy(perLevelAbs = null, perLevelCnt = null))
    assert(stats.perLevelAbs.toSeq == full.perLevelAbs.toSeq && stats.perLevelCnt.toSeq == full.perLevelCnt.toSeq)
  }

  /** Every field of `t` as raw bits, doubles by their IEEE-754 pattern. */
  private def statBits(t: LevelInterp.TrialStats): Seq[Long] = {
    def b(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    Seq(t.nPredicted, b(t.sumAbsErr), b(t.sumSqRecon), b(t.estPayloadBits), t.nAnchors) ++
      t.perLevelAbs.map(b) ++ t.perLevelCnt
  }

  /** A random fp32-exact grid of 1-4 dims, sides 1-40 and at most 32768
    * points, with a random valid plan: anchor stride, per-level configs,
    * level bounds, a frozen dimension or none, and block overrides or none.
    */
  private val trialCase: Gen[(GridData, InterpPlan, Boolean)] = for {
    nd <- Gen.choose(1, 4)
    dims <- Gen.listOfN(nd, Gen.choose(1, 40)).retryUntil(_.product <= 32768).map(_.toArray)
    seed <- Gen.long
    stride <- Gen.oneOf(2, 4, 8, 16, 32)
    frozen <- if (nd >= 2) Gen.choose(-1, nd - 1) else Gen.const(-1)
    levels = Integer.numberOfTrailingZeros(stride)
    active = (0 until nd).filterNot(_ == frozen).toArray
    configs <- Gen.listOfN(levels, for {
      spline <- Gen.oneOf(Spline.Kind.all.toSeq)
      multi <- Gen.oneOf(false, true)
      order <- Gen.long.map(s => new scala.util.Random(s).shuffle(active.toSeq))
      sameLevel <- Gen.oneOf(false, true)
    } yield LevelConfig(spline, if (multi) Paradigm.MultiDim else Paradigm.OneD(order.toArray), sameLevel))
    ebs <- Gen.listOfN(levels, Gen.choose(-5.0, -1.0).map(math.pow(10, _)))
    weights <- Gen.listOfN(nd, Gen.choose(0.01, 1.0))
    fvfi <- Gen.oneOf(false, true)
    bs <- Gen.oneOf(0, 8, 16, 32)
    encode <- Gen.oneOf(false, true)
  } yield {
    val rnd = new scala.util.Random(seed)
    val freqs = Array.fill(nd)(rnd.nextDouble() * 0.6)
    val grid = GridData.toFloatPrecision(GridData.tabulate(dims) { c =>
      c.indices.map(k => math.sin(c(k) * freqs(k) + k)).sum + 0.01 * rnd.nextGaussian()
    })
    val nBlocks = if (bs == 0) 0 else dims.map(d => (d + bs - 1) / bs).product
    val blockSplines = Array.fill(nBlocks)(rnd.nextInt(Spline.Kind.all.length).toByte)
    val plan = InterpPlan(dims, stride, frozen, configs.toArray, ebs.toArray,
      weights.map(w => (w / weights.sum).toFloat.toDouble).toArray, fvfi, bs, blockSplines)
    (grid, plan, encode)
  }

  test("a shared trial work buffer gives the stats of a fresh one and leaves the input unchanged") {
    val prop = Prop.forAll(Gen.choose(1, 6).flatMap(Gen.listOfN(_, trialCase))) { cases =>
      val work = new TrialWork
      cases.forall { case (grid, plan, encode) =>
        val before = grid.data.clone()
        // What earlier trials left in the buffers must not matter.
        java.util.Arrays.fill(work.doubles(0, grid.size), Double.NaN)
        java.util.Arrays.fill(work.ints(grid.size), -1)
        val shared = LevelInterp.trial(grid, plan, encode, work)
        val fresh = LevelInterp.trial(grid, plan, encode, new TrialWork)
        statBits(shared) == statBits(fresh) && java.util.Arrays.equals(grid.data, before)
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(100).withInitialSeed(Seed(20251)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  test("cubic beats linear on smooth data (prediction accuracy)") {
    val g = TestGrids.smooth3D()
    val lin = LevelInterp.trial(g, InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.Linear, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false), 1e-3))
    val cub = LevelInterp.trial(g, InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false), 1e-3))
    assert(cub.meanAbsErr < lin.meanAbsErr)
  }

  test("multi-dim interpolation beats 1D-style on isotropic smooth data (Thm 5.1)") {
    val g = GridData.toFloatPrecision(GridData.tabulate(Array(32, 32, 32)) { c =>
      math.sin(c(0) * 0.25) + math.sin(c(1) * 0.25) + math.sin(c(2) * 0.25)
    })
    val oneD = LevelInterp.trial(g, InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(0, 1, 2)), sameLevel = false), 1e-4))
    val multi = LevelInterp.trial(g, InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false), 1e-4))
    assert(multi.meanAbsErr < oneD.meanAbsErr,
      s"multi ${multi.meanAbsErr} should beat 1D ${oneD.meanAbsErr}")
  }

  test("dims smaller than anchor stride still work") {
    val g = TestGrids.smooth3D(5, 6, 7)
    val plan = InterpPlan.uniform(g.dims, 32,
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false), 1e-3)
    roundTrip(g, plan, 1e-3)
  }

  test("plan serialization round-trips") {
    val cfgs = Array(
      LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false),
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(2, 1)), sameLevel = true),
      LevelConfig(Spline.Kind.Linear, Paradigm.OneD(Array(1, 2)), sameLevel = false),
      LevelConfig(Spline.Kind.Natural, Paradigm.OneD(Array(2, 1)), sameLevel = true),
      LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false),
    )
    val plan = InterpPlan(Array(10, 20, 30), 32, 0, cfgs,
      Array(1e-3, 5e-4, 2.5e-4, 2.5e-4, 2.5e-4), Array(0.2, 0.3, 0.5),
      fvfi = true, 32, Array[Byte](0, 1, 2))
    val w = new repro.core.ByteWriter()
    InterpPlan.serialize(w, plan)
    val back = InterpPlan.deserialize(new repro.core.ByteReader(w.toBytes))
    assert(back.dims.toSeq == plan.dims.toSeq)
    assert(back.anchorStride == plan.anchorStride)
    assert(back.frozenDim == plan.frozenDim)
    assert(back.fvfi == plan.fvfi)
    assert(back.blockSize == plan.blockSize)
    assert(back.blockSplines.toSeq == plan.blockSplines.toSeq)
    assert(back.levelEbs.toSeq == plan.levelEbs.toSeq)
    (back.levelConfigs zip plan.levelConfigs).foreach { case (a, b) =>
      assert(a.spline == b.spline)
      assert(a.sameLevel == b.sameLevel)
      (a.paradigm, b.paradigm) match {
        case (Paradigm.OneD(x), Paradigm.OneD(y)) => assert(x.toSeq == y.toSeq)
        case (x, y)                               => assert(x == y)
      }
    }
    // dimWeights stored as float32
    (back.dimWeights zip plan.dimWeights).foreach { case (a, b) =>
      assert(math.abs(a - b) < 1e-6)
    }
  }

  test("InterpPlan rejects bad level error bounds") {
    val cfg = LevelConfig(Spline.Kind.Linear, Paradigm.OneD(Array(0, 1)), sameLevel = false)
    for (eb <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity))
      intercept[IllegalArgumentException](InterpPlan.uniform(Array(8, 8), 4, cfg, eb))
    // deserialize reads the bounds from the stream: a zeroed one is rejected too
    def double(v: Double): Array[Byte] = { val w = new repro.core.ByteWriter(); w.writeDouble(v); w.toBytes }
    val w = new repro.core.ByteWriter()
    InterpPlan.serialize(w, InterpPlan.uniform(Array(8, 8), 4, cfg, 1e-3))
    val bytes = w.toBytes
    double(0.0).copyToArray(bytes, bytes.indexOfSlice(double(1e-3)))
    intercept[IllegalArgumentException](InterpPlan.deserialize(new repro.core.ByteReader(bytes)))
  }
}
