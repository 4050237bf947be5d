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
