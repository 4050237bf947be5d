package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GridDataSpec extends AnyFunSuite {

  test("strides are row-major with last dim fastest") {
    val g = new GridData(Array(2, 3, 4), new Array[Double](24))
    assert(g.strides.toSeq == Seq(12, 4, 1))
  }

  test("index/coords round-trip") {
    val g = GridData.tabulate(Array(3, 4, 5))(c => c(0) * 100 + c(1) * 10 + c(2))
    for (idx <- 0 until g.size) {
      val c = g.coords(idx)
      assert(g.index(c) == idx)
      assert(g.data(idx) == c(0) * 100 + c(1) * 10 + c(2))
    }
  }

  test("tabulate fills values in row-major order") {
    val g = GridData.tabulate(Array(2, 2))(c => c(0) * 2 + c(1))
    assert(g.data.toSeq == Seq(0.0, 1.0, 2.0, 3.0))
  }

  test("1-D grid works") {
    val g = GridData.tabulate(Array(7))(c => c(0).toDouble)
    assert(g.strides.toSeq == Seq(1))
    assert(g(Array(3)) == 3.0)
  }

  test("minMax and valueRange") {
    val g = GridData.tabulate(Array(4, 4))(c => c(0) - 2.0 * c(1))
    assert(g.minMax == ((-6.0, 3.0)))
    assert(g.valueRange == 9.0)
  }

  test("copyGrid is independent") {
    val g = GridData.tabulate(Array(3, 3))(_ => 1.0)
    val h = g.copyGrid
    h.data(0) = 99.0
    assert(g.data(0) == 1.0)
  }

  test("slice extracts the right window") {
    val g = GridData.tabulate(Array(5, 6))(c => c(0) * 10 + c(1))
    val s = g.slice(Array(1, 2), Array(2, 3))
    assert(s.dims.toSeq == Seq(2, 3))
    assert(s.data.toSeq == Seq(12.0, 13.0, 14.0, 22.0, 23.0, 24.0))
  }

  test("slice of 3-D grid") {
    val g = GridData.tabulate(Array(4, 4, 4))(c => c(0) * 16 + c(1) * 4 + c(2))
    val s = g.slice(Array(1, 1, 1), Array(2, 2, 2))
    assert(s.data.toSeq == Seq(21.0, 22.0, 25.0, 26.0, 37.0, 38.0, 41.0, 42.0))
  }

  test("slice matches coordinate lookup on 1-D and 4-D grids") {
    for (dims <- Seq(Array(13), Array(3, 5, 4, 6))) {
      val g = GridData.tabulate(dims)(c => c.zipWithIndex.map { case (v, k) => v * math.pow(10, k) }.sum)
      val origin = dims.map(_ / 3)
      val ext = dims.map(d => d - d / 3 - 1)
      val s = g.slice(origin, ext)
      for (o <- 0 until s.size) {
        val c = s.coords(o)
        assert(s.data(o) == g(Array.tabulate(dims.length)(k => origin(k) + c(k))))
      }
    }
  }

  test("paste is the inverse of slice") {
    val g = GridData.tabulate(Array(5, 5))(c => c(0) + c(1).toDouble)
    val s = g.slice(Array(2, 1), Array(2, 3))
    val h = new GridData(Array(5, 5), new Array[Double](25))
    h.paste(Array(2, 1), s)
    for (i <- 0 until 2; j <- 0 until 3)
      assert(h(Array(2 + i, 1 + j)) == g(Array(2 + i, 1 + j)))
  }

  test("paste is the inverse of slice on 1-D and 4-D grids") {
    for (dims <- Seq(Array(13), Array(3, 5, 4, 6))) {
      val g = GridData.tabulate(dims)(c => c.zipWithIndex.map { case (v, k) => v * math.pow(10, k) }.sum)
      val origin = dims.map(_ / 3)
      val ext = dims.map(d => d - d / 3 - 1)
      val h = new GridData(dims.clone(), Array.fill(g.size)(-1.0))
      h.paste(origin, g.slice(origin, ext))
      for (idx <- 0 until g.size) {
        val c = g.coords(idx)
        val inBox = c.indices.forall(k => c(k) >= origin(k) && c(k) < origin(k) + ext(k))
        assert(h.data(idx) == (if (inBox) g.data(idx) else -1.0))
      }
    }
  }

  test("paste out of range throws") {
    val g = new GridData(Array(4, 4), new Array[Double](16))
    val sub = GridData.tabulate(Array(2, 2))(_ => 1.0)
    intercept[IllegalArgumentException](g.paste(Array(0, 3), sub))
    intercept[IllegalArgumentException](g.paste(Array(-1, 0), sub))
    assert(g.data.forall(_ == 0.0))
  }

  test("slice out of range throws") {
    val g = GridData.tabulate(Array(3, 3))(_ => 0.0)
    intercept[IllegalArgumentException](g.slice(Array(2, 0), Array(2, 2)))
  }

  test("bad dims rejected") {
    intercept[IllegalArgumentException](new GridData(Array(2, 0), new Array[Double](0)))
    intercept[IllegalArgumentException](new GridData(Array(2, 2), new Array[Double](3)))
  }

  test("toFloatPrecision rounds to float") {
    val g = new GridData(Array(2), Array(1.0 / 3.0, 2.0))
    val f = GridData.toFloatPrecision(g)
    assert(f.data(0) == (1.0 / 3.0).toFloat.toDouble)
    assert(f.data(1) == 2.0)
  }
}
