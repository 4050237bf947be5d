package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Compressor, HPEZ, Metrics}
import repro.core.tuning.Sampling

class SciDataSpec extends AnyFunSuite {
  import SciData._

  test("all eight datasets are defined with fields") {
    (floatDatasets ++ intDatasets).foreach { d =>
      val fs = fields(d)
      assert(fs.nonEmpty, s"$d has no fields")
      fs.foreach(f => assert(f.points > 0))
    }
  }

  test("float dataset order matches the paper's Table 2 rows") {
    assert(floatDatasets == Seq("CESM", "RTM", "Miranda", "SCALE", "JHTDB", "SegSalt"))
  }

  test("unknown dataset rejected") {
    intercept[IllegalArgumentException](fields("NOPE"))
  }

  test("values are deterministic and fp32-exact") {
    val ref = fields("Miranda", shrink = 0.2).head
    val g1 = generate(ref)
    val g2 = generate(ref)
    assert(g1.data.toSeq == g2.data.toSeq)
    g1.data.take(1000).foreach(v => assert(v == v.toFloat.toDouble, s"not fp32-exact: $v"))
  }

  test("generate equals per-point valueAt for all eight datasets") {
    (floatDatasets ++ intDatasets).map(fields(_, shrink = 0.15).head).foreach { ref =>
      val g = generate(ref)
      var idx = 0
      while (idx < g.size) {
        val v = valueAt(ref, g.coords(idx))
        assert(java.lang.Double.compare(v, g.data(idx)) == 0, s"$ref at ${g.coords(idx).mkString(",")}: $v != ${g.data(idx)}")
        idx += 1
      }
    }
  }

  test("a box equals the matching slice of the generated field") {
    (floatDatasets ++ intDatasets).map(fields(_, shrink = 0.2).head).foreach { ref =>
      val g = generate(ref)
      val origin = g.dims.map(_ / 3)
      val ext = g.dims.map(d => d - d / 3 - d / 4)
      assert(java.util.Arrays.equals(box(ref, origin, ext), g.slice(origin, ext).data), ref.toString)
    }
  }

  test("different fields of a dataset differ") {
    val fs = fields("RTM", shrink = 0.15)
    val a = generate(fs(0)).data
    val b = generate(fs(1)).data
    assert(a.toSeq != b.toSeq)
  }

  test("integer datasets produce integral values") {
    (intDatasets.flatMap(fields(_, 0.2))).foreach { ref =>
      val g = generate(ref)
      g.data.take(2000).foreach(v => assert(v == math.rint(v), s"${ref.dataset}: $v not integral"))
    }
  }

  test("shrink scales dimensions with a floor of 8") {
    val big = fields("JHTDB").head.dims.toSeq
    val small = fields("JHTDB", 0.25).head.dims.toSeq
    assert(big == Seq(96, 96, 96))
    assert(small == Seq(24, 24, 24))
    assert(fields("CESM", 0.01).head.dims.forall(_ >= 8))
  }

  test("rawBytes uses fp32 accounting") {
    val ref = fields("APS", 0.5).head
    assert(ref.rawBytes == ref.points * 4)
  }

  test("SCALE and CESM are roughest along dim 0 (freezing candidates)") {
    for (d <- Seq("SCALE", "CESM")) {
      val ref = fields(d, 0.3).head
      val stats = Sampling.dimStats(generate(ref), sampleRate = 0.05)
      assert(stats.roughestDim == 0, s"$d roughest dim should be 0, got ${stats.roughestDim}")
      assert(stats.sigma2(0) > 3 * stats.sigma2(1), s"$d should be clearly anisotropic")
    }
  }

  test("RTM/Miranda/JHTDB/SegSalt are not dominated by dim-0 roughness") {
    for (d <- Seq("RTM", "Miranda", "JHTDB")) {
      val ref = fields(d, 0.3).head
      val stats = Sampling.dimStats(generate(ref), sampleRate = 0.05)
      // anisotropy may exist but within an order of magnitude
      assert(stats.sigma2.max < 100 * stats.sigma2.min, s"$d unexpectedly extreme anisotropy")
    }
  }

  test("smoothness ordering: RTM compresses better than JHTDB at the same eps") {
    val rtm = fields("RTM", 0.35).head
    val jh = fields("JHTDB", 0.35).head
    def cr(ref: SciData.FieldRef): Double = {
      val g = generate(ref)
      val bytes = HPEZ().compress(g, Compressor.absoluteBound(g, 1e-3))
      Metrics.compressionRatio(bytes.length.toLong, g.size.toLong)
    }
    assert(cr(rtm) > cr(jh), "RTM (smooth wavefield) should out-compress JHTDB (turbulence)")
  }

  test("every float field respects the bound under HPEZ (smoke, small scale)") {
    allFloatFields(0.18).foreach { ref =>
      val g = generate(ref)
      val absEb = Compressor.absoluteBound(g, 1e-3)
      val back = HPEZ().decompress(HPEZ().compress(g, absEb))
      val maxErr = Metrics.maxAbsError(g.data, back.data)
      assert(maxErr <= absEb + 1e-12, s"$ref: $maxErr > $absEb")
    }
  }

  test("integer fields respect the bound under HPEZ") {
    intDatasets.flatMap(fields(_, 0.2)).foreach { ref =>
      val g = generate(ref)
      val absEb = Compressor.absoluteBound(g, 1e-2)
      val back = HPEZ().decompress(HPEZ().compress(g, absEb))
      assert(Metrics.maxAbsError(g.data, back.data) <= absEb + 1e-12, s"$ref bound")
    }
  }
}
