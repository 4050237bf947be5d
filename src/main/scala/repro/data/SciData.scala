package repro.data

import repro.core.GridData

/** Synthetic analogues of the paper's eight evaluation datasets (Table 1).
  *
  * The real datasets (SDRBench archives, multi-GB) are unavailable in this
  * sealed environment; these generators preserve the *character* that
  * drives each compressor-design decision — smooth wavefields (RTM),
  * piecewise-smooth geology (SEGSalt), multi-scale turbulence (Miranda,
  * JHTDB), and the vertically-rough climate/weather stacks (SCALE-LetKF,
  * CESM-ATM) that motivate dynamic dimension freezing — at ~10⁻³ of the
  * paper's scale. See DESIGN.md §3 for the substitution table.
  *
  * Every value is deterministic in (dataset, field, coordinates) and
  * exactly representable as float32, so generation can run inside Spark
  * partitions and the driver alike, and compressors may store lossless
  * side data in 4 bytes.
  */
object SciData {

  /** A single named field (≙ one file of a paper dataset). */
  final case class FieldRef(dataset: String, field: String, dims: Array[Int], isInteger: Boolean) {
    def points: Long = dims.map(_.toLong).product
    /** fp32 accounting, as in the paper (all float datasets are fp32). */
    def rawBytes: Long = points * 4
    override def toString = s"$dataset/$field(${dims.mkString("x")})"
  }

  /** The six floating-point datasets, in the paper's Table 2 row order. */
  val floatDatasets: Seq[String] = Seq("CESM", "RTM", "Miranda", "SCALE", "JHTDB", "SegSalt")

  /** The two integer datasets. */
  val intDatasets: Seq[String] = Seq("NSTX-GPI", "APS")

  /** Benchmark-scale dims per dataset (paper dims → scaled, DESIGN.md §3). */
  private val benchDims: Map[String, Array[Int]] = Map(
    "RTM"      -> Array(112, 112, 60),  // paper 449×449×235
    "SegSalt"  -> Array(126, 126, 44),  // paper 1008×1008×352
    "Miranda"  -> Array(64, 96, 96),    // paper 256×384×384
    "SCALE"    -> Array(49, 150, 150),  // paper 98×1200×1200
    "CESM"     -> Array(26, 180, 360),  // paper 26×1800×3600 (26 levels kept!)
    "JHTDB"    -> Array(96, 96, 96),    // paper 512×512×512
    "NSTX-GPI" -> Array(500, 40, 32),   // paper 50000×80×64 (integer movie)
    "APS"      -> Array(448, 512),      // paper 1792×2048 (integer image)
  )

  /** Fields per dataset (≙ the paper's multiple files per application). */
  def fields(dataset: String, shrink: Double = 1.0): Seq[FieldRef] = {
    val dims0 = benchDims.getOrElse(dataset,
      throw new IllegalArgumentException(s"unknown dataset $dataset"))
    val dims = dims0.map(d => math.max(8, math.round(d * shrink).toInt))
    val isInt = intDatasets.contains(dataset)
    val names = dataset match {
      case "CESM"  => Seq("CLDHGH", "TS")
      case "RTM"   => Seq("snapshot-1400", "snapshot-2000")
      case "Miranda" => Seq("density", "velocityx")
      case "SCALE" => Seq("QS", "U")
      case "JHTDB" => Seq("pressure-1", "pressure-2")
      case "SegSalt" => Seq("velocity", "overthrust")
      case "NSTX-GPI" => Seq("frames")
      case "APS"   => Seq("detector")
    }
    names.map(n => FieldRef(dataset, n, dims, isInt))
  }

  /** All fields of all float datasets at a given shrink factor. */
  def allFloatFields(shrink: Double = 1.0): Seq[FieldRef] =
    floatDatasets.flatMap(fields(_, shrink))

  // ---------------------------------------------------------------------
  // Deterministic pseudo-randomness (splitmix64 over seeds)

  private def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform in [0,1) from a compound seed. */
  private def u(seed: Long, k: Int): Double =
    ((mix(seed * 1315423911L + k) >>> 11).toDouble / (1L << 53).toDouble)

  private def fieldSeed(ref: FieldRef): Long =
    mix(ref.dataset.hashCode.toLong << 32 | (ref.field.hashCode & 0xffffffffL))

  // ---------------------------------------------------------------------
  // Value functions

  /** Value at integer coordinates (deterministic, fp32-exact). */
  def valueAt(ref: FieldRef, c: Array[Int]): Double = box(ref, c, Array.fill(c.length)(1))(0)

  /** Materializes the whole field (driver-side; bench scale is ~1M pts). */
  def generate(ref: FieldRef): GridData =
    new GridData(ref.dims.clone(), box(ref, new Array[Int](ref.dims.length), ref.dims))

  /** Values of the box [origin, origin + ext) of a field, row-major. The
    * per-field (and per-level) constants and every term that depends on
    * one axis only are computed once per box.
    */
  def box(ref: FieldRef, origin: Array[Int], ext: Array[Int]): Array[Double] = {
    val nd = ref.dims.length
    require(nd <= 3 && origin.length == nd && ext.length == nd, s"bad box for $ref")
    val b = new Box(ref.dims, origin.padTo(3, 0), ext.padTo(3, 1))
    val s = fieldSeed(ref)
    val gen: Gen = ref.dataset match {
      case "RTM"      => new Rtm(s, b)
      case "SegSalt"  => new SegSalt(s, b)
      case "Miranda"  => new Miranda(s, b)
      case "SCALE"    => new LevelStack(s, b, levelPhaseJump = 0.35, levelAmpRough = 0.6)
      case "CESM"     => new LevelStack(s, b, levelPhaseJump = 2.1, levelAmpRough = 1.0)
      case "JHTDB"    => new Jhtdb(s, b)
      case "NSTX-GPI" => new Nstx(s, b)
      case "APS"      => new Aps(s, b)
    }
    val e = b.e
    val out = new Array[Double](e(0) * e(1) * e(2))
    var n = 0
    var i0 = 0
    while (i0 < e(0)) {
      var i1 = 0
      while (i1 < e(1)) {
        var i2 = 0
        while (i2 < e(2)) {
          val v = gen.at(i0, i1, i2)
          out(n) = if (ref.isInteger) math.rint(v) else v.toFloat.toDouble
          n += 1; i2 += 1
        }
        i1 += 1
      }
      i0 += 1
    }
    out
  }

  /** A box of a field: origin `o` and extents `e`, padded to 3 dimensions. */
  private final class Box(val dims: Array[Int], val o: Array[Int], val e: Array[Int]) {
    /** The normalized coordinate c / dims(k) of every box position along axis k. */
    def frac(k: Int): Array[Double] = Array.tabulate(e(k))(i => (o(k) + i).toDouble / dims(k))
  }

  /** f(mode, v) for every mode and every value `v` of an axis. */
  private def perAxis(modes: Int, axis: Array[Double])(f: (Int, Double) => Double): Array[Array[Double]] =
    Array.tabulate(modes, axis.length)((m, i) => f(m, axis(i)))

  /** A field's value function over one box, with its constants
    * precomputed; `at` takes box-relative positions (2-D fields ignore i2).
    */
  private abstract class Gen {
    def at(i0: Int, i1: Int, i2: Int): Double
  }

  /** RTM: a few Gaussian-enveloped spherical wavefronts over a smooth
    * background — very smooth, very high CR (paper Table 3).
    */
  private final class Rtm(s: Long, b: Box) extends Gen {
    private val x = b.frac(0); private val y = b.frac(1); private val z = b.frac(2)
    private val dx2 = perAxis(4, x) { (w, v) => val c = u(s, 10 * w); (v - c) * (v - c) }
    private val dy2 = perAxis(4, y) { (w, v) => val c = u(s, 10 * w + 1); (v - c) * (v - c) }
    private val dz2 = perAxis(4, z) { (w, v) => val c = u(s, 10 * w + 2); (v - c) * (v - c) }
    private val k = Array.tabulate(4)(w => 14.0 + 8.0 * u(s, 10 * w + 3))
    private val sig2 = Array.tabulate(4) { w => val sig = 0.15 + 0.1 * u(s, 10 * w + 4); sig * sig }
    private val phase = Array.tabulate(4)(w => 6.28 * u(s, 10 * w + 5))
    private val tail = new FineTail(s, 3e-3)
    def at(i0: Int, i1: Int, i2: Int): Double = {
      var v = 0.0
      var w = 0
      while (w < 4) {
        val r = math.sqrt(dx2(w)(i0) + dy2(w)(i1) + dz2(w)(i2))
        v += math.sin(k(w) * r + phase(w)) * math.exp(-r * r / sig2(w)) / (w + 1.0)
        w += 1
      }
      // fine-scale numerical ripple (power-law tail down to the grid scale)
      v += tail(x(i0), y(i1), z(i2))
      v * 1e3 // seismic-amplitude scale
    }
  }

  /** Low-amplitude fine-scale tail: smooth value noise on a hashed
    * lattice (cell size ~4 normalized units of 1/32). Unlike global
    * sinusoids, this is spatially incoherent — full Tucker rank, not
    * representable by a few global basis vectors — which is how fine-scale
    * structure behaves in real simulation output. It keeps stride-1
    * prediction partially possible (the noise is smooth inside a cell),
    * so predictor quality differentiates compressors at fine levels.
    */
  private final class FineTail(s: Long, a0: Double) {
    private val coarse = new ValueNoise(s)
    private val fine = new ValueNoise(s + 31)
    def apply(x: Double, y: Double, z: Double): Double =
      a0 * (coarse(24.0 * x, 24.0 * y, 24.0 * z) + 0.5 * fine(48.0 * x, 48.0 * y, 48.0 * z))
  }

  /** Trilinear-interpolated hash noise in [-1, 1] with smoothstep fade.
    * Keeps the corner hashes of the last cell it was asked about.
    */
  private final class ValueNoise(s: Long) {
    private var x0 = Int.MinValue; private var y0 = 0; private var z0 = 0
    private var h000 = 0.0; private var h100 = 0.0; private var h010 = 0.0; private var h110 = 0.0
    private var h001 = 0.0; private var h101 = 0.0; private var h011 = 0.0; private var h111 = 0.0

    private def h(i: Int, j: Int, k: Int): Double = {
      val m = mix(s ^ (i.toLong * 0x9E3779B1L) ^ (j.toLong * 0x85EBCA77L) ^ (k.toLong * 0xC2B2AE3DL))
      (m >>> 11).toDouble / (1L << 52).toDouble - 1.0
    }

    private def fade(t: Double): Double = t * t * (3 - 2 * t)

    def apply(px: Double, py: Double, pz: Double): Double = {
      val xi = math.floor(px).toInt; val yi = math.floor(py).toInt; val zi = math.floor(pz).toInt
      if (xi != x0 || yi != y0 || zi != z0) {
        x0 = xi; y0 = yi; z0 = zi
        h000 = h(xi, yi, zi); h100 = h(xi + 1, yi, zi); h010 = h(xi, yi + 1, zi); h110 = h(xi + 1, yi + 1, zi)
        h001 = h(xi, yi, zi + 1); h101 = h(xi + 1, yi, zi + 1)
        h011 = h(xi, yi + 1, zi + 1); h111 = h(xi + 1, yi + 1, zi + 1)
      }
      val wx = fade(px - xi); val wy = fade(py - yi); val wz = fade(pz - zi)
      val c00 = h000 + wx * (h100 - h000)
      val c01 = h001 + wx * (h101 - h001)
      val c10 = h010 + wx * (h110 - h010)
      val c11 = h011 + wx * (h111 - h011)
      val c0 = c00 + wy * (c10 - c00)
      val c1 = c01 + wy * (c11 - c01)
      c0 + wz * (c1 - c0)
    }
  }

  /** SEGSalt: depth-layered velocity model with undulating interfaces and
    * a high-velocity salt body — piecewise smooth.
    */
  private final class SegSalt(s: Long, b: Box) extends Gen {
    private val x = b.frac(0); private val y = b.frac(1); private val z = b.frac(2)
    private val waveX = x.map(v => 0.06 * math.sin(4.1 * v + 6.28 * u(s, 1)))
    private val waveY = y.map(v => 0.05 * math.cos(3.3 * v + 6.28 * u(s, 2)))
    private val dx2 = x.map { v => val d = (v - 0.45) / 0.28; d * d }
    private val dy2 = y.map { v => val d = (v - 0.55) / 0.3; d * d }
    private val dz2 = z.map { v => val d = (v - 0.5) / 0.22; d * d }
    private val tail = new FineTail(s, 2e-3)
    def at(i0: Int, i1: Int, i2: Int): Double = {
      val z = this.z(i2)
      val undulation = waveX(i0) + waveY(i1)
      // soft staircase: t − sin(2πt)/2π has flat treads with steep but
      // finite-gradient risers (real velocity models are band-limited)
      val t = (z + undulation) * 8.0
      val layer = t - math.sin(6.283185307179586 * t) / 6.283185307179586
      var v = 1500.0 + 260.0 * layer + 120.0 * z
      // salt body: smooth-edged ellipsoid of near-constant high velocity
      val q = dx2(i0) + dy2(i1) + dz2(i2)
      val salt = 1.0 / (1.0 + math.exp((q - 1.0) * 25.0))
      v = v * (1 - salt) + (4450.0 + 30.0 * z) * salt
      v + 1e3 * tail(x(i0), y(i1), z)
    }
  }

  /** Miranda: smooth multi-mode mixing field with a soft interface.
    * Gaussian mode envelopes break the separable-sum structure (real
    * turbulence is not low-Tucker-rank).
    */
  private final class Miranda(s: Long, b: Box) extends Gen {
    private val x = b.frac(0); private val y = b.frac(1); private val z = b.frac(2)
    private val kx = perAxis(8, x)((m, v) => (0.8 + 1.8 * u(s, 9 * m)) * v)
    private val ky = perAxis(8, y)((m, v) => (0.8 + 1.8 * u(s, 9 * m + 1)) * v)
    private val kz = perAxis(8, z)((m, v) => (0.8 + 1.8 * u(s, 9 * m + 2)) * v)
    private val phase = Array.tabulate(8)(m => 6.28 * u(s, 9 * m + 3))
    private val dx2 = perAxis(8, x) { (m, v) => val c = u(s, 9 * m + 4); (v - c) * (v - c) }
    private val dy2 = perAxis(8, y) { (m, v) => val c = u(s, 9 * m + 5); (v - c) * (v - c) }
    private val dz2 = perAxis(8, z) { (m, v) => val c = u(s, 9 * m + 6); (v - c) * (v - c) }
    private val tail = new FineTail(s, 2.5e-3)
    def at(i0: Int, i1: Int, i2: Int): Double = {
      var v = 0.0
      var m = 0
      while (m < 8) {
        val env = math.exp(-(dx2(m)(i0) + dy2(m)(i1) + dz2(m)(i2)) / 0.35)
        v += env * math.sin(6.28 * (kx(m)(i0) + ky(m)(i1) + kz(m)(i2)) + phase(m)) / (m + 1.5)
        m += 1
      }
      // density interface (tanh front) + fine-scale mixing tail
      val y = this.y(i1)
      1.8 + 0.9 * math.tanh(6.0 * (y - 0.5 + 0.15 * v)) + 0.12 * v + tail(x(i0), y, z(i2))
    }
  }

  /** Vertically-stacked atmosphere: per-level 2-D fields whose mode phases
    * drift by `levelPhaseJump` per level (small = SCALE-LetKF's partially
    * correlated levels; large = CESM-ATM's nearly independent levels) and
    * whose per-level amplitude is roughened by `levelAmpRough`. The
    * non-smooth dim 0 is what dynamic dimension freezing targets (§6.3).
    */
  private final class LevelStack(s: Long, b: Box, levelPhaseJump: Double, levelAmpRough: Double) extends Gen {
    private val lev = Array.tabulate(b.e(0))(b.o(0) + _)
    private val y = b.frac(1); private val z = b.frac(2)
    private val ky = perAxis(6, y)((m, v) => (0.8 + 2.4 * u(s, 8 * m)) * v)
    private val kz = perAxis(6, z)((m, v) => (0.8 + 2.4 * u(s, 8 * m + 1)) * v)
    private val levAmp = lev.map(l => 1.0 + levelAmpRough * (u(mix(s + 77), l) - 0.5))
    // envelope centers drift randomly per level so the stack is NOT a
    // low-Tucker-rank sum of separable terms (real atmospheres aren't)
    private val cy = lev.map(l => Array.tabulate(6)(m => (u(s, 8 * m + 4) + 0.2 * u(mix(s + 1013L * l), m)) % 1.0))
    private val cz = lev.map(l => Array.tabulate(6)(m => (u(s, 8 * m + 5) + 0.2 * u(mix(s + 2027L * l), m + 40)) % 1.0))
    private val phase = lev.map(l => Array.tabulate(6)(m => 6.28 * u(s, 8 * m + 2) + levelPhaseJump * l * (1 + 0.3 * m)))
    // per-level INDEPENDENT fine noise: each atmospheric level carries its
    // own small-scale structure, so no horizontal basis is shared across
    // levels (this is what defeats global-basis compressors on real CESM)
    private val tail = lev.map(l => new FineTail(mix(s + 7919L * (l + 3)), 3e-3))
    def at(i0: Int, i1: Int, i2: Int): Double = {
      val y = this.y(i1); val z = this.z(i2)
      val cyl = cy(i0); val czl = cz(i0); val phl = phase(i0)
      var v = 0.0
      var m = 0
      while (m < 6) {
        val d2 = (y - cyl(m)) * (y - cyl(m)) + (z - czl(m)) * (z - czl(m))
        val env = math.exp(-d2 / 0.3)
        v += env * math.sin(6.28 * (ky(m)(i1) + kz(m)(i2)) + phl(m)) / (m + 1.2)
        m += 1
      }
      levAmp(i0) * v + 0.02 * lev(i0) + tail(i0)(0.37, y, z)
    }
  }

  /** JHTDB: broadband multi-octave turbulence — steep power-law spectrum
    * (pressure fields are smooth at the grid scale), with envelopes on
    * the high octaves to break separability. Modes j = 3·octave + m.
    */
  private final class Jhtdb(s: Long, b: Box) extends Gen {
    private val x = b.frac(0); private val y = b.frac(1); private val z = b.frac(2)
    private def base(j: Int): Int = 20 * (j / 3) + 6 * (j % 3)
    private def k(j: Int): Double = (1 << (j / 3)).toDouble
    private val amp = Array.tabulate(12)(j => math.pow(2.0, -2.0 * (j / 3)))
    private val kx = perAxis(12, x)((j, v) => k(j) * (0.4 + 0.7 * u(s, base(j))) * v)
    private val ky = perAxis(12, y)((j, v) => k(j) * (0.4 + 0.7 * u(s, base(j) + 1)) * v)
    private val kz = perAxis(12, z)((j, v) => k(j) * (0.4 + 0.7 * u(s, base(j) + 2)) * v)
    private val phase = Array.tabulate(12)(j => 6.28 * u(s, base(j) + 3))
    // The high octaves' envelopes depend on (x, y) only.
    private val env = Array.tabulate(12, b.e(0), b.e(1)) { (j, i0, i1) =>
      if (j < 6) 1.0
      else {
        val cx = u(s, base(j) + 4); val cy = u(s, base(j) + 5)
        math.exp(-((x(i0) - cx) * (x(i0) - cx) + (y(i1) - cy) * (y(i1) - cy)) / 0.25)
      }
    }
    private val tail = new FineTail(s, 4e-3)
    def at(i0: Int, i1: Int, i2: Int): Double = {
      var v = 0.0
      var j = 0
      while (j < 12) {
        v += amp(j) * env(j)(i0)(i1) * math.sin(6.28 * (kx(j)(i0) + ky(j)(i1) + kz(j)(i2)) + phase(j))
        j += 1
      }
      v + tail(x(i0), y(i1), z(i2))
    }
  }

  /** NSTX-GPI: integer plasma-blob movie — bright blobs drifting across a
    * small frame over many time steps (dim 0 = time).
    */
  private final class Nstx(s: Long, b: Box) extends Gen {
    private val dims = b.dims
    private val t = b.frac(0)
    // Blob centers per time step.
    private val yc = t.map(t => Array.tabulate(3)(b => dims(1) * (0.2 + 0.6 * ((u(s, 7 * b) + 0.7 * t * (1 + b)) % 1.0))))
    private val zc = t.map(t => Array.tabulate(3)(b => dims(2) * (0.2 + 0.6 * ((u(s, 7 * b + 1) + 0.9 * t * (2 - 0.5 * b)) % 1.0))))
    def at(i0: Int, i1: Int, i2: Int): Double = {
      val y = (b.o(1) + i1).toDouble; val z = (b.o(2) + i2).toDouble
      var v = 420.0 + 40.0 * math.sin(12.0 * t(i0))
      var k = 0
      while (k < 3) {
        val d2 = (y - yc(i0)(k)) * (y - yc(i0)(k)) + (z - zc(i0)(k)) * (z - zc(i0)(k))
        v += 1600.0 / (1 + k) * math.exp(-d2 / (30.0 + 20 * k))
        k += 1
      }
      v
    }
  }

  /** APS: integer 2-D detector image — smooth background, diffraction
    * rings and bright spots.
    */
  private final class Aps(s: Long, b: Box) extends Gen {
    private val x = b.frac(0); private val y = b.frac(1)
    private val sx = Array.tabulate(6)(sp => u(s, 3 * sp))
    private val sy = Array.tabulate(6)(sp => u(s, 3 * sp + 1))
    private val amp = Array.tabulate(6)(sp => 2500.0 * u(s, 3 * sp + 2))
    def at(i0: Int, i1: Int, i2: Int): Double = {
      val x = this.x(i0); val y = this.y(i1)
      val dx = x - 0.5; val dy = y - 0.5
      val r = math.sqrt(dx * dx + dy * dy)
      var v = 900.0 * math.exp(-r * r * 3.0) + 120.0
      v += 300.0 * math.exp(-math.pow((r - 0.22) * 40, 2)) + 180.0 * math.exp(-math.pow((r - 0.37) * 50, 2))
      var sp = 0
      while (sp < 6) {
        val d2 = (x - sx(sp)) * (x - sx(sp)) + (y - sy(sp)) * (y - sy(sp))
        v += amp(sp) * math.exp(-d2 * 8000.0)
        sp += 1
      }
      v
    }
  }
}
