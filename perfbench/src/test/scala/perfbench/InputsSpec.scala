package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SciData

class InputsSpec extends AnyFunSuite {

  test("seed 0 reproduces SciData.generate exactly") {
    val canonical = SciData.allFloatFields()
    assert(Inputs.refs(0).map(_.toString) == canonical.map(_.toString))
    val generated = Inputs.generate(Inputs.refs(0).take(2), Seq(1e-3), threads = 2)
    canonical.take(2).zip(generated).foreach { case (ref, f) =>
      assert(java.util.Arrays.equals(SciData.generate(ref).data, f.grid.data), ref.toString)
    }
  }

  test("another seed gives different fields of the same shape") {
    val a = Inputs.refs(0)
    val b = Inputs.refs(7)
    assert(a.map(_.dims.toSeq) == b.map(_.dims.toSeq))
    assert(a.map(_.field).intersect(b.map(_.field)).isEmpty)
    // One field per generator family: wavefield, level stack, turbulence.
    for (i <- Seq(2, 0, 8))
      assert(!java.util.Arrays.equals(SciData.generate(a(i)).data, SciData.generate(b(i)).data), a(i).toString)
  }
}
