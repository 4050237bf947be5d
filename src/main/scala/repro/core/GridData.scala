package repro.core

/** An n-dimensional structured data grid over a flat row-major array.
  *
  * Layout is row-major with the LAST dimension fastest-varying (C order),
  * matching the memory layout assumed by the paper's fast-varying-first
  * interpolation discussion (Section 5.4.1: "Dim1 is the fastest-varying
  * dimension" in the 2-D example).
  *
  * Values are held as `Double`. The scientific datasets in the paper are
  * float32 (or integer); [[repro.data.SciData]] generates values that are
  * exactly representable as `Float`, so compressors may store lossless
  * side information (anchors, outliers) in 4 bytes without violating the
  * error bound.
  *
  * @param dims extents per dimension, e.g. Array(98, 1200, 1200)
  * @param data flat row-major values, length == dims.product
  */
final class GridData(val dims: Array[Int], val data: Array[Double]) extends Serializable {
  require(dims.nonEmpty && dims.forall(_ > 0), s"bad dims ${dims.mkString("x")}")
  require(data.length.toLong == dims.map(_.toLong).product,
    s"data length ${data.length} != ${dims.mkString("x")}")

  /** Number of dimensions. */
  def ndim: Int = dims.length

  /** Total number of points. */
  def size: Int = data.length

  /** Flat-index stride of each dimension (last dim has stride 1). */
  val strides: Array[Int] = GridData.strides(dims)

  /** Flat index of the given coordinates. */
  def index(coords: Array[Int]): Int = {
    var idx = 0; var i = 0
    while (i < coords.length) { idx += coords(i) * strides(i); i += 1 }
    idx
  }

  /** Value at the given coordinates. */
  def apply(coords: Array[Int]): Double = data(index(coords))

  /** Coordinates of a flat index (allocates). */
  def coords(idx: Int): Array[Int] = {
    val c = new Array[Int](dims.length)
    var rem = idx; var i = 0
    while (i < dims.length) { c(i) = rem / strides(i); rem %= strides(i); i += 1 }
    c
  }

  /** Deep copy (compressors mutate their working array). */
  def copyGrid: GridData = new GridData(dims.clone(), data.clone())

  /** (min, max) over all values. */
  def minMax: (Double, Double) = {
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    var i = 0
    while (i < data.length) {
      val v = data(i)
      if (v < mn) mn = v
      if (v > mx) mx = v
      i += 1
    }
    (mn, mx)
  }

  /** max - min; 0-range inputs are handled by compressors as constants. */
  def valueRange: Double = { val (mn, mx) = minMax; mx - mn }

  /** Extracts the sub-grid with the given origin and extents (allocates). */
  def slice(origin: Array[Int], extents: Array[Int]): GridData =
    sliceInto(origin, new GridData(extents, new Array[Double](extents.map(_.toLong).product.toInt)))

  /** Copies the sub-grid at `origin` with `out`'s extents into `out`. */
  def sliceInto(origin: Array[Int], out: GridData): GridData = { copyBox(origin, out, toSub = true); out }

  /** Writes `sub` back at `origin` (inverse of [[slice]]). */
  def paste(origin: Array[Int], sub: GridData): Unit = copyBox(origin, sub, toSub = false)

  /** Copies the box at `origin` with `sub`'s extents into `sub` (`toSub`)
    * or from it, row by row along the last dimension. The box must lie
    * inside the grid.
    */
  private def copyBox(origin: Array[Int], sub: GridData, toSub: Boolean): Unit = {
    val extents = sub.dims
    require(origin.length == ndim && extents.length == ndim)
    var k = 0
    while (k < ndim) {
      require(origin(k) >= 0 && origin(k) + extents(k) <= dims(k),
        s"box out of range on dim $k: ${origin(k)}+${extents(k)} > ${dims(k)}")
      k += 1
    }
    val last = ndim - 1
    val rowLen = extents(last)
    val rows = sub.size / rowLen
    var row = 0
    while (row < rows) {
      val o = row * rowLen
      var idx = origin(last)
      var i = 0
      while (i < last) {
        idx += (origin(i) + (o / sub.strides(i)) % extents(i)) * strides(i)
        i += 1
      }
      if (toSub) System.arraycopy(data, idx, sub.data, o, rowLen)
      else System.arraycopy(sub.data, o, data, idx, rowLen)
      row += 1
    }
  }

  override def toString: String = s"GridData(${dims.mkString("x")})"
}

object GridData {
  /** Flat-index stride of each dimension of a row-major grid with `dims`. */
  def strides(dims: Array[Int]): Array[Int] = {
    val s = new Array[Int](dims.length)
    s(dims.length - 1) = 1
    var i = dims.length - 2
    while (i >= 0) { s(i) = s(i + 1) * dims(i + 1); i -= 1 }
    s
  }

  /** Builds a grid by evaluating `f` at every coordinate (row-major). */
  def tabulate(dims: Array[Int])(f: Array[Int] => Double): GridData = {
    val n = dims.map(_.toLong).product
    require(n <= Int.MaxValue, s"grid too large: $n")
    val data = new Array[Double](n.toInt)
    val g = new GridData(dims, data)
    val c = new Array[Int](dims.length)
    var idx = 0
    while (idx < data.length) {
      var rem = idx; var i = 0
      while (i < dims.length) { c(i) = rem / g.strides(i); rem %= g.strides(i); i += 1 }
      data(idx) = f(c)
      idx += 1
    }
    g
  }

  /** Rounds every value to the nearest Float — makes 4-byte lossless
    * side-channel storage exact (see class doc).
    */
  def toFloatPrecision(g: GridData): GridData = {
    val d = new Array[Double](g.size)
    var i = 0
    while (i < d.length) { d(i) = g.data(i).toFloat.toDouble; i += 1 }
    new GridData(g.dims.clone(), d)
  }
}
