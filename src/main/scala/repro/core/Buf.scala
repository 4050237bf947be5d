package repro.core

/** Growable int buffer without boxing. */
final class IntBuf(initial: Int = 256) {
  private var a = new Array[Int](math.max(16, initial))
  private var n = 0
  def +=(v: Int): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(n) = v; n += 1
  }
  def toArray: Array[Int] = java.util.Arrays.copyOf(a, n)
}

/** Growable double buffer without boxing. */
final class DblBuf(initial: Int = 256) {
  private var a = new Array[Double](math.max(16, initial))
  private var n = 0
  def +=(v: Double): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(n) = v; n += 1
  }
  def toArray: Array[Double] = java.util.Arrays.copyOf(a, n)
}

/** Work arrays that one tuning run lends to all of its trials. A trial
  * copies its input into [[load]]'s slot and works there; slots grow on
  * demand, so one may be longer than the trial.
  */
final class TrialWork {
  private val dbl = Array.fill(3)(Array.emptyDoubleArray)
  private var int = Array.emptyIntArray
  /** Double slot `k` (0 is [[load]]'s), at least `n` long. */
  def doubles(k: Int, n: Int): Array[Double] = { if (dbl(k).length < n) dbl(k) = new Array[Double](n); dbl(k) }
  /** The int slot, at least `n` long. */
  def ints(n: Int): Array[Int] = { if (int.length < n) int = new Array[Int](n); int }
  /** Slot 0 with `grid`'s values copied into its front. */
  def load(grid: GridData): Array[Double] = {
    val d = doubles(0, grid.size)
    System.arraycopy(grid.data, 0, d, 0, grid.size)
    d
  }
}
