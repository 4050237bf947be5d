package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.interp._
import repro.core.tuning.{AutoTuner, Sampling}
import repro.data.SciData

/** Tuner internals pinned by SHA-256 of their raw bits. The stream hashes
  * of [[GoldenStreamSpec]] pin only what the tuner chose; these pin the
  * estimates behind the choices: every field of the level-candidate
  * trials, the tuner's [[AutoTuner.Result]] and a block-wise override
  * lattice.
  */
object GoldenTuner {

  private val conformanceRefs = SciData.allFloatFields(0.15).take(6)

  /** Every field of `t`, bit for bit. */
  def writeStats(w: ByteWriter, t: LevelInterp.TrialStats): Unit = {
    w.writeLong(t.nPredicted); w.writeDouble(t.sumAbsErr); w.writeDouble(t.sumSqRecon)
    w.writeDouble(t.estPayloadBits); w.writeLong(t.nAnchors)
    w.writeDoubleArray(t.perLevelAbs)
    w.writeVarInt(t.perLevelCnt.length.toLong); t.perLevelCnt.foreach(w.writeLong)
  }

  /** HPEZ's level candidates over the active dimensions `active`, as the
    * global interpolation tuning enumerates them: 13 on two or more
    * active dimensions.
    */
  def levelCandidates(active: Array[Int]): Seq[LevelConfig] =
    AutoTuner.Features.hpez.splines.flatMap { spline =>
      val oneD = for {
        o <- Seq(active, active.reverse)
        sl <- if (spline.isCubic) Seq(false, true) else Seq(false)
      } yield LevelConfig(spline, Paradigm.OneD(o), sl)
      oneD :+ LevelConfig(spline, Paradigm.MultiDim, sameLevel = false)
    }

  /** Every level candidate on a field's sample block, without and with the
    * roughest dimension frozen, with `encode` off and on, followed by the
    * block itself, which the trials must leave unchanged.
    */
  private def trialCase(ref: SciData.FieldRef): (String, () => Array[Byte]) =
    s"trials on the sample block of $ref" -> (() => {
      val g = SciData.generate(ref)
      val eb = Compressor.absoluteBound(g, 1e-3)
      val stats = Sampling.dimStats(g)
      val b = Sampling.sampleBlocks(g).head
      val w = new ByteWriter()
      for {
        frozen <- Seq(-1, stats.roughestDim)
        cfg <- levelCandidates(b.dims.indices.filterNot(_ == frozen).toArray)
        encode <- Seq(false, true)
      } {
        val plan = InterpPlan(b.dims, 32, frozen, Array.fill(5)(cfg), Array.fill(5)(eb), stats.dimWeights,
          fvfi = true, 0, Array.emptyByteArray)
        writeStats(w, LevelInterp.trial(b, plan, encode))
      }
      w.writeDoubleArray(b.data)
      w.toBytes
    })

  private def writeResult(w: ByteWriter, r: AutoTuner.Result): Unit = {
    w.writeByte(if (r.useLorenzo) 1 else 0)
    w.writeVarInt(r.lorenzoOrder.toLong)
    InterpPlan.serialize(w, r.plan)
    w.writeDouble(r.estBits)
    w.writeDouble(r.estPsnr)
  }

  /** The HPEZ tuner's results on a field at ε = 1e-2 to 1e-5. */
  private def tuneCase(ref: SciData.FieldRef, target: AutoTuner.Target): (String, () => Array[Byte]) =
    s"tune $target on $ref" -> (() => {
      val g = SciData.generate(ref)
      val w = new ByteWriter()
      for (eps <- Seq(1e-2, 1e-3, 1e-4, 1e-5))
        writeResult(w, AutoTuner.tune(g, Compressor.absoluteBound(g, eps), AutoTuner.Features.hpez, target))
      w.toBytes
    })

  /** Fields whose HPEZ plans at ε = 1e-3 override the spline in some
    * 32-sided blocks: one with a 2×2×1 block lattice and one whose edge
    * blocks are partial along every dimension.
    */
  val blockwiseRefs: Seq[SciData.FieldRef] =
    Seq(SciData.fields("RTM", 0.3).head, SciData.fields("SegSalt").head)

  /** `blockwiseTune` on the tuner's plan for `ref` with its overrides removed. */
  def blockwisePlan(ref: SciData.FieldRef): InterpPlan = {
    val g = SciData.generate(ref)
    val eb = Compressor.absoluteBound(g, 1e-3)
    val r = AutoTuner.tune(g, eb, AutoTuner.Features.hpez, AutoTuner.Target.CR)
    AutoTuner.blockwiseTune(g, r.plan.copy(blockSize = 0, blockSplines = Array.emptyByteArray), eb,
      AutoTuner.Features.hpez)
  }

  val cases: Seq[(String, () => Array[Byte])] =
    Seq(0, 2, 4).map(i => trialCase(conformanceRefs(i))) ++
      (for (ref <- conformanceRefs; t <- Seq(AutoTuner.Target.CR, AutoTuner.Target.PSNR)) yield tuneCase(ref, t)) ++
      blockwiseRefs.map(ref => s"block-wise overrides on $ref" -> (() => {
        val w = new ByteWriter()
        InterpPlan.serialize(w, blockwisePlan(ref))
        w.toBytes
      }))
}

/** Byte-identity proof for changes to the tuner's trials: each case's raw
  * bits must hash to the pinned SHA-256 value.
  */
class GoldenTunerSpec extends AnyFunSuite {
  import GoldenStreams.sha256
  import GoldenTuner._

  test("the tuner golden table covers every case exactly once") {
    assert(cases.map(_._1).distinct.size == cases.size)
    assert(cases.map(_._1).toSet == Expected.keySet)
  }

  test("the block-wise cases have overrides") {
    for (ref <- blockwiseRefs) {
      val p = blockwisePlan(ref)
      assert(p.blockSize == 32 && p.blockSplines.exists(_ != p.levelConfigs.head.spline.id), ref.toString)
    }
  }

  for ((name, run) <- cases) {
    test(s"golden: $name") {
      assert(sha256(run()) == Expected(name), "tuner bits changed")
    }
  }

  /** SHA-256 per case, computed with the tuner whose trials copied their
    * input and buffered their codes in a growable array.
    */
  private lazy val Expected: Map[String, String] = Map(
    "trials on the sample block of CESM/CLDHGH(8x27x54)" ->
      "72403885aca1eb53b0dce419a5f20deeacc2be596bb2bd18e25b05f847b5ad3e",
    "trials on the sample block of RTM/snapshot-1400(17x17x9)" ->
      "781a53f6f86b61ce1b0feb6e34f43586ace8b4f26221dd52ab73f5a682003c63",
    "trials on the sample block of Miranda/density(10x14x14)" ->
      "372f7d9b90e7267126891f30a82532716e7d05687f20099a9556d0085b133026",
    "tune CR on CESM/CLDHGH(8x27x54)" ->
      "0f01243f7b97a3f39f2becffcbc26c3a4746b7a8334f1f0cf2764c0060e36bcf",
    "tune PSNR on CESM/CLDHGH(8x27x54)" ->
      "0f01243f7b97a3f39f2becffcbc26c3a4746b7a8334f1f0cf2764c0060e36bcf",
    "tune CR on CESM/TS(8x27x54)" ->
      "01e475eeb71dd2f1329f4c27311ece0778df9a70573a1dd3f4052d4a2a41f532",
    "tune PSNR on CESM/TS(8x27x54)" ->
      "372c8f73e4ca43aa283f43ab28e13042034c4b5f86e03959e302e07c2a1e9700",
    "tune CR on RTM/snapshot-1400(17x17x9)" ->
      "205b20cd559211a584857590ff4db9782ad032dc57478b3210f5cc55a470b2d0",
    "tune PSNR on RTM/snapshot-1400(17x17x9)" ->
      "b310243c0498cf7b2fd6afe52d2234392c3bc75625dfcb82a978db5385471acd",
    "tune CR on RTM/snapshot-2000(17x17x9)" ->
      "22174be6a2bfbfdf5eb0b1532574b0b44c8dbe321ad6fc89c70b611397148d71",
    "tune PSNR on RTM/snapshot-2000(17x17x9)" ->
      "22174be6a2bfbfdf5eb0b1532574b0b44c8dbe321ad6fc89c70b611397148d71",
    "tune CR on Miranda/density(10x14x14)" ->
      "e96b1cae363e4576059ba4a18744f0c99bf8a79462bc15062b02555b32b42db1",
    "tune PSNR on Miranda/density(10x14x14)" ->
      "e96b1cae363e4576059ba4a18744f0c99bf8a79462bc15062b02555b32b42db1",
    "tune CR on Miranda/velocityx(10x14x14)" ->
      "48408e2cff9b93e402ff4ba60c6300952208378296f8ad1290123ab67f856ba4",
    "tune PSNR on Miranda/velocityx(10x14x14)" ->
      "d6beea99d3ffe55d590164c6870189cb0f20cd967ec871aeb00a5d05df0768d0",
    "block-wise overrides on RTM/snapshot-1400(34x34x18)" ->
      "5a7351910c89803b418afc154398cc85ce27bf3aef5e59693665da1fd94bc955",
    "block-wise overrides on SegSalt/velocity(126x126x44)" ->
      "f64df2393a320261bfe59f5d0977bf8f2bdaa70a2eeb5fed77ce84ebb4cd8299",
  )
}
