package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Compressor, HPEZ}
import repro.data.SciData

class FidelitySpec extends AnyFunSuite {

  private def replay(dataset: String, field: String, eps: Double): Array[Long] = {
    val ref = SciData.fields(dataset).find(_.field == field).get
    val grid = SciData.generate(ref)
    val absEb = Compressor.absoluteBound(grid, eps)
    val c = new StageCounters
    val staged = new StagedHpez(c)
    val expected = HPEZ().compress(grid, absEb)
    val bytes = staged.compress(grid, absEb)
    assert(java.util.Arrays.equals(bytes, expected), s"$ref: staged stream differs")
    val recon = staged.decompress(bytes)
    assert(java.util.Arrays.equals(recon.data, HPEZ().decompress(expected).data), s"$ref: decoded grid differs")
    c.value
  }

  test("staged replay matches HPEZ on the interpolation path") {
    val c = replay("Miranda", "velocityx", 1e-3)
    assert(c(Slot.LorenzoGrids) == 0 && c(Slot.InterpPoints) > 0 && c(Slot.InterpDecompNs) > 0)
  }

  test("staged replay matches HPEZ on the Lorenzo path") {
    val c = replay("Miranda", "density", 1e-5)
    assert(c(Slot.LorenzoGrids) == 1 && c(Slot.LorenzoPoints) > 0 && c(Slot.LorenzoDecompNs) > 0)
  }

  test("Fidelity.same flags a stream that differs") {
    def trip(b: Byte) = Trip(4, 1, 1, Nil, ok = true, 0, 0, Seq(Array[Byte](1, b)), None)
    assert(Fidelity.same(Pass(Seq(trip(2))), Pass(Seq(trip(2)))))
    assert(!Fidelity.same(Pass(Seq(trip(2))), Pass(Seq(trip(3)))))
  }
}
