package repro

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.interp._
import repro.core.lorenzo.Lorenzo
import repro.data.SciData
import repro.eval.Eval

/** The byte-identity matrix: codecs, fields, bounds and interpolation
  * plans whose compressed bytes and decompressed grids are pinned by
  * SHA-256 in [[GoldenStreamSpec]].
  */
object GoldenStreams {

  /** One pinned round trip: `run` returns (stream bytes, decompressed grid). */
  final case class Case(name: String, run: () => (Array[Byte], GridData))

  def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString

  /** Hash of the dims and the raw bits of every value. */
  def gridHash(g: GridData): String = {
    val w = new ByteWriter()
    w.writeIntArray(g.dims)
    w.writeDoubleArray(g.data)
    sha256(w.toBytes)
  }

  private val shrink = 0.15
  /** The ConformanceSpec matrix fields. */
  private val conformanceRefs = SciData.allFloatFields(shrink).take(6)
  private val miranda = SciData.fields("Miranda", shrink).head

  private def codecCase(codec: String, label: String, grid: => GridData, eps: Double): Case =
    Case(s"$codec on $label at $eps", () => {
      val g = grid
      val c = Eval.compressor(codec)
      val bytes = c.compress(g, Compressor.absoluteBound(g, eps))
      (bytes, c.decompress(bytes))
    })

  private def fieldCase(codec: String, ref: SciData.FieldRef, eps: Double): Case =
    codecCase(codec, ref.toString, SciData.generate(ref), eps)

  /** Direct traversal round trip: the stream is the raw codes, outliers
    * and anchors, so the entropy stage cannot mask a traversal change.
    */
  private def planCase(label: String, grid: => GridData, plan: GridData => InterpPlan): Case =
    Case(s"plan $label", () => {
      val g = grid
      val p = plan(g)
      val res = LevelInterp.compressWith(g.copyGrid, p)
      val w = new ByteWriter()
      w.writeIntArray(res.codes)
      w.writeDoubleArray(res.outliers)
      w.writeDoubleArray(res.anchors)
      (w.toBytes, LevelInterp.decompressWith(p, res.codes, res.outliers, res.anchors))
    })

  /** Direct Lorenzo round trip: the stream is the raw codes and outliers
    * followed by that order's trial statistics on the same grid.
    */
  private def lorenzoCase(label: String, grid: => GridData, eb: Double, order: Int): Case =
    Case(s"lorenzo order $order on $label at $eb", () => {
      val g = grid
      val (codes, outliers) = Lorenzo.compressWith(g.copyGrid, eb, order)
      val t = Lorenzo.trial(g, eb).find(_.order == order).get
      val w = new ByteWriter()
      w.writeIntArray(codes)
      w.writeDoubleArray(outliers)
      w.writeDoubleArray(Array(t.nPredicted.toDouble, t.meanAbsErr, t.reconMse, t.estPayloadBits))
      (w.toBytes, Lorenzo.decompressWith(g.dims, eb, order, codes, outliers))
    })

  private def grid4D: GridData =
    GridData.toFloatPrecision(GridData.tabulate(Array(9, 11, 6, 13)) { c =>
      math.sin(c(0) * 0.3) + math.cos(c(1) * 0.2) * math.sin(c(2) * 0.4) + 0.1 * c(3)
    })

  private val oneD3 = Paradigm.OneD(Array(0, 1, 2))
  private val planConfigs: Seq[(String, LevelConfig)] = Seq(
    "linear 1D" -> LevelConfig(Spline.Kind.Linear, oneD3, sameLevel = false),
    "linear 1D same-level flag" -> LevelConfig(Spline.Kind.Linear, oneD3, sameLevel = true),
    "not-a-knot 1D" -> LevelConfig(Spline.Kind.NotAKnot, oneD3, sameLevel = false),
    "not-a-knot 1D reversed" -> LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(2, 1, 0)), sameLevel = false),
    "natural 1D" -> LevelConfig(Spline.Kind.Natural, oneD3, sameLevel = false),
    "not-a-knot 1D same-level" -> LevelConfig(Spline.Kind.NotAKnot, oneD3, sameLevel = true),
    "natural 1D same-level" -> LevelConfig(Spline.Kind.Natural, Paradigm.OneD(Array(1, 0, 2)), sameLevel = true),
    "linear multi-dim" -> LevelConfig(Spline.Kind.Linear, Paradigm.MultiDim, sameLevel = false),
    "not-a-knot multi-dim" -> LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false),
    "natural multi-dim" -> LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false),
  )

  /** Per-level bounds that differ, so a level mix-up shows. */
  private def tieredPlan(g: GridData, cfg: LevelConfig, fvfi: Boolean, eb: Double): InterpPlan =
    InterpPlan.uniform(g.dims, 32, cfg, eb, fvfi)
      .copy(levelEbs = InterpPlan.levelEbs(eb, 1.5, 3.0, 5), dimWeights = Array(0.25, 0.35, 0.4))

  /** Block-wise spline override (Section 6.6) on a 2×2×2 block lattice. */
  private def overridePlan(g: GridData, cfg: LevelConfig): InterpPlan = {
    val nBlocks = g.dims.map(d => (d + 31) / 32).product
    InterpPlan.uniform(g.dims, 32, cfg, 1e-3)
      .copy(blockSize = 32, blockSplines = Array.tabulate[Byte](nBlocks)(i => (i % 3).toByte))
  }

  /** Inputs that HPEZ compresses with the Lorenzo predictor at ε = 1e-5:
    * a full-size field and a small integer image.
    */
  val lorenzoCases: Seq[Case] = Seq(
    fieldCase("HPEZ", SciData.fields("Miranda").head, 1e-5),
    codecCase("HPEZ", "TestGrids.ints2D", TestGrids.ints2D(), 1e-5))

  /** Every stencil shape: 1-D to 4-D, an outlier-heavy input, and a grid
    * whose outer extents are below the order, so every point is a boundary
    * point.
    */
  private val lorenzoDirect: Seq[Case] = for {
    order <- Seq(1, 2)
    (label, g, eb) <- Seq[(String, () => GridData, Double)](
      ("TestGrids.smooth1D", () => TestGrids.smooth1D(), 1e-4),
      ("TestGrids.smooth2D", () => TestGrids.smooth2D(), 1e-4),
      ("TestGrids.ints2D", () => TestGrids.ints2D(), 0.5),
      ("17x19x23", () => TestGrids.smooth3D(17, 19, 23), 1e-4),
      ("1x2x30", () => TestGrids.smooth3D(1, 2, 30), 1e-4),
      ("TestGrids.noise3D", () => TestGrids.noise3D(), 1e-6),
      ("4-D", () => grid4D, 1e-3))
  } yield lorenzoCase(label, g(), eb, order)

  val cases: Seq[Case] = {
    val conformance = for (codec <- Eval.CompressorNames; ref <- conformanceRefs) yield fieldCase(codec, ref, 1e-3)
    val mirandaBounds = for (codec <- Eval.CompressorNames; eps <- Seq(1e-2, 1e-4)) yield fieldCase(codec, miranda, eps)
    val hpezAll = SciData.allFloatFields(shrink).drop(6).map(fieldCase("HPEZ", _, 1e-3))
    val noFvfi = conformanceRefs.map(fieldCase("HPEZ (w/o FVFI)", _, 1e-3))
    val psnr = Seq(fieldCase("HPEZ (psnr)", miranda, 1e-3), fieldCase("QoZ 1.1 (psnr)", miranda, 1e-3))
    val small = for {
      codec <- Seq("HPEZ", "HPEZ (w/o FVFI)", "QoZ 1.1", "SZ 3.1")
      (label, g) <- Seq[(String, () => GridData)](
        "TestGrids.smooth1D" -> (() => TestGrids.smooth1D()),
        "TestGrids.smooth2D" -> (() => TestGrids.smooth2D()),
        "TestGrids.roughDim0" -> (() => TestGrids.roughDim0()))
    } yield codecCase(codec, label, g(), 1e-3)
    val plans = for ((label, cfg) <- planConfigs; fvfi <- Seq(true, false))
      yield planCase(s"$label fvfi=$fvfi on 17x19x23", TestGrids.smooth3D(17, 19, 23), tieredPlan(_, cfg, fvfi, 1e-3))
    val special = Seq(
      planCase("block override not-a-knot 1D on 40^3", TestGrids.smooth3D(40, 40, 40),
        overridePlan(_, LevelConfig(Spline.Kind.NotAKnot, oneD3, sameLevel = false))),
      planCase("block override natural 1D same-level on 40^3", TestGrids.smooth3D(40, 40, 40),
        overridePlan(_, LevelConfig(Spline.Kind.Natural, oneD3, sameLevel = true))),
      planCase("block override natural multi-dim on 40^3", TestGrids.smooth3D(40, 40, 40),
        overridePlan(_, LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false))),
      planCase("frozen dim 0 multi-dim on roughDim0", TestGrids.roughDim0(), g =>
        InterpPlan.uniform(g.dims, 32, LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false),
          1e-3, fvfi = false, frozenDim = 0)),
      planCase("frozen dim 2 same-level on 12x24x24", TestGrids.roughDim0(), g =>
        InterpPlan.uniform(g.dims, 8, LevelConfig(Spline.Kind.Natural, Paradigm.OneD(Array(1, 0)), sameLevel = true),
          1e-3, frozenDim = 2)),
      planCase("4-D multi-dim", grid4D, g =>
        InterpPlan.uniform(g.dims, 16, LevelConfig(Spline.Kind.Natural, Paradigm.MultiDim, sameLevel = false), 1e-3)),
      planCase("4-D not-a-knot 1D same-level no fvfi", grid4D, g =>
        InterpPlan.uniform(g.dims, 16, LevelConfig(Spline.Kind.NotAKnot, Paradigm.OneD(Array(3, 1, 0, 2)),
          sameLevel = true), 1e-3, fvfi = false)),
      planCase("1-D natural same-level", TestGrids.smooth1D(), g =>
        InterpPlan.uniform(g.dims, 64, LevelConfig(Spline.Kind.Natural, Paradigm.OneD(Array(0)), sameLevel = true), 1e-4)),
      planCase("noise multi-dim at 1e-5", TestGrids.noise3D(), g =>
        InterpPlan.uniform(g.dims, 32, LevelConfig(Spline.Kind.NotAKnot, Paradigm.MultiDim, sameLevel = false), 1e-5)),
    )
    conformance ++ mirandaBounds ++ hpezAll ++ noFvfi ++ psnr ++ small ++ lorenzoCases ++ lorenzoDirect ++ plans ++ special
  }

  /** `xs` in a seeded Fisher-Yates order. */
  private def shuffled(xs: Array[Int], seed: Long): Array[Int] = {
    val rnd = new scala.util.Random(seed)
    val a = xs.clone()
    var i = a.length - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  /** `counts(k)` copies of `syms(k)` for every k, shuffled. */
  private def histogram(syms: Array[Int], counts: Array[Int], seed: Long): Array[Int] = {
    val out = new Array[Int](counts.sum)
    var n = 0
    for (k <- syms.indices; _ <- 0 until counts(k)) { out(n) = syms(k); n += 1 }
    shuffled(out, seed)
  }

  private val R = LevelInterp.Radius

  /** Direct `Huffman.encode` inputs whose streams are pinned: the codec
    * streams alone never reach deep ties, codes longer than 32 bits or the
    * extremes of the alphabet.
    */
  val huffmanCases: Seq[(String, () => Array[Int])] = Seq(
    "empty" -> (() => Array.emptyIntArray),
    "one symbol" -> (() => Array.fill(1000)(R)),
    "one occurrence of symbol 0" -> (() => Array(0)),
    "two symbols" -> (() => histogram(Array(R - 1, R + 1), Array(777, 333), 1)),
    "ties: 1000 symbols of count 7" -> (() => histogram(Array.range(0, 1000), Array.fill(1000)(7), 2)),
    "ties: three count classes over 300 symbols" ->
      (() => histogram(Array.tabulate(300)(s => 5000 + 3 * s), Array.tabulate(300)(s => 1 + s % 3), 3)),
    "ties: symmetric counts around radius" ->
      (() => histogram(Array.range(R - 50, R + 51), Array.tabulate(101)(k => 60 - math.abs(k - 50)), 4)),
    "ties: power-of-two counts" ->
      (() => histogram(Array.range(100, 164), Array.tabulate(64)(k => 1 << (k % 8)), 5)),
    // Fibonacci counts give the deepest tree for their total: 34 symbols
    // reach 33-bit codes, which cross 64-bit words of the payload.
    "fibonacci counts, 33-bit codes" -> (() => {
      val fib = Iterator.iterate((1, 1)) { case (a, b) => (b, a + b) }.map(_._1).take(34).toArray
      histogram(Array.tabulate(34)(k => 7 * k + 2), fib, 6)
    }),
    "2^16 distinct symbols around radius" -> (() =>
      histogram(Array.range(R - 32768, R + 32768), Array.tabulate(65536)(s => 1 + 2000 / (1 + math.abs(s - 32768))), 7)),
    "symbol 2^21-1" -> (() => histogram(Array(0, 5, R, (1 << 21) - 1), Array(40, 3, 100, 17), 8)),
    "2^20 + 12345 quantizer-like symbols" -> (() => {
      val rnd = new scala.util.Random(9)
      Array.fill((1 << 20) + 12345)(if (rnd.nextInt(500) == 0) 0 else R + math.round(rnd.nextGaussian() * 4).toInt)
    }),
    // The escape code 0 against symbols near the radius R.
    "escapes only" -> (() => Array.fill(5000)(0)),
    "an escape and one other symbol" -> (() => histogram(Array(0, R + 3), Array(40, 900), 10)),
    "escape count tied with another symbol's" ->
      (() => histogram(Array(0, R - 1, R, R + 1), Array(50, 50, 400, 120), 11)),
    "escape as the most frequent symbol" ->
      (() => histogram(Array(0, R - 2, R, R + 2), Array(3000, 100, 700, 100), 12)),
    "no escape, every symbol at least R - 10" ->
      (() => histogram(Array.range(R - 10, R + 11), Array.tabulate(21)(k => 1 + 30 / (1 + math.abs(k - 10))), 13)),
  )
}

/** Byte-identity proof for refactors of the prediction traversal and the
  * entropy stage: every case's compressed bytes and decompressed grid must
  * hash to the pinned SHA-256 values. The hashes were computed with the
  * per-point traversal, Lorenzo sweep and bit-serial Huffman decoder that
  * the line kernels, the grouped Lorenzo sweep and the table decoder
  * replaced; only a deliberate stream-format change may edit them.
  */
class GoldenStreamSpec extends AnyFunSuite {
  import GoldenStreams._

  test("the golden table covers every case exactly once") {
    assert(cases.map(_.name).distinct.size == cases.size)
    assert(cases.map(_.name).toSet == Expected.keySet)
  }

  test("the Lorenzo cases take the Lorenzo path") {
    for (c <- lorenzoCases) {
      val (bytes, _) = c.run()
      assert(Lossless.decompress(bytes)(8) == 1, s"${c.name}: predictor tag is not Lorenzo")
    }
  }

  for (c <- cases) {
    test(s"golden: ${c.name}") {
      val (bytes, grid) = c.run()
      val (streamHash, gridHash0) = Expected(c.name)
      assert(sha256(bytes) == streamHash, "stream bytes changed")
      assert(gridHash(grid) == gridHash0, "decompressed grid changed")
    }
  }

  test("the Huffman golden table covers every case exactly once") {
    assert(huffmanCases.map(_._1).distinct.size == huffmanCases.size)
    assert(huffmanCases.map(_._1).toSet == HuffmanExpected.keySet)
  }

  for ((name, symbols) <- huffmanCases) {
    test(s"golden: huffman $name") {
      val xs = symbols()
      val bytes = Huffman.encode(xs)
      assert(sha256(bytes) == HuffmanExpected(name), "stream bytes changed")
      assert(Huffman.decode(bytes) sameElements xs, "decoded symbols changed")
    }
  }

  /** SHA-256 of `Huffman.encode` per case, computed with the encoder that
    * built its tree from boxed nodes and a `PriorityQueue` of tuples; the
    * escape cases with the primitive-array encoder whose histogram spanned
    * the escape code 0 too.
    */
  private lazy val HuffmanExpected: Map[String, String] = Map(
    "empty" ->
      "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "one symbol" ->
      "470a38916908f1b3548550ceaf244a1bc2acf7169f72a7692e77c32692b85112",
    "one occurrence of symbol 0" ->
      "43e1994655cf5498f12709cad4b2179008c8128e1d7cf851893197a7f578b625",
    "two symbols" ->
      "60721f5e71133570e5d5ef4d822256a39cdb9b0f45ffa57085d87c27fd0e01bd",
    "ties: 1000 symbols of count 7" ->
      "1a0fb7e8e1f1a688df3897cb7e34c4bd9bfcd47b9f9f729c919eab430f986b00",
    "ties: three count classes over 300 symbols" ->
      "eac04a177fe7041230b9e666d13070915fd38ab33d2123edd35b1245d3e516b8",
    "ties: symmetric counts around radius" ->
      "489edfedda264d437f31328985553a597b773435b21c117bc17333d86e740293",
    "ties: power-of-two counts" ->
      "c4a582f2b2ff17ca0290e21ea2ab6ab5482a978fd48b882037608fb071733fc3",
    "fibonacci counts, 33-bit codes" ->
      "50ba0a373972a28e67e4f801b374c38e20f6ac50ed790620d681290b09241f01",
    "2^16 distinct symbols around radius" ->
      "2133f3fbc7997576a232ea21afa586840c21b490b6ce6973b64bdf0de8c7ab44",
    "symbol 2^21-1" ->
      "05c924784f54d4555d538f161204020e14fe6e5a73a272870a3daca0408560e8",
    "2^20 + 12345 quantizer-like symbols" ->
      "b7103cd94ce7ddf775e72fadab8508d48eb4509fe5ddc499dd622582ebbc747e",
    "escapes only" ->
      "d820569bbf5ca04158957af3467d162aba8248fb6c66c4c8673efd7e241b455c",
    "an escape and one other symbol" ->
      "f9ed18ffe6f64279519f6a597be1cd9ce0b06c9f17ee9bbe3efe767843455e8b",
    "escape count tied with another symbol's" ->
      "8b31ea42544e41461bc1ba684299254ba3ea68159b19a73be133d75a7a2f9cdd",
    "escape as the most frequent symbol" ->
      "4fbc649441339b232337ddea2cfbb921a562ec7913c4831f27bb37c38944b13e",
    "no escape, every symbol at least R - 10" ->
      "850007f6bf0351e8712c8b56555d89e8868a8728f3d755079b7659523cec0dd5",
  )

  private lazy val Expected: Map[String, (String, String)] = Map(
    "SZ 3.1 on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("7d2ff88b3aca24b991810a63fc1831dcdc36827aa974afb6afba0e1a4e50d672",
       "a80c06ce9b7f7dad8952e07dea664c0b6d4f3908a91119d626536198ea338b00"),
    "SZ 3.1 on CESM/TS(8x27x54) at 0.001" ->
      ("68e5d90b7ec8bd4b0c2fd879c3b80f7c439b9b310a3c4e5a94723f71a5b71f4d",
       "6cb561ab16bc6b0fcb805c23ce50ec181b6edc30ecb8c7f4894053c33e5fe63f"),
    "SZ 3.1 on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("406a2f321234796d2e691116bd4b0e62f2c94fa79868aeda7839404c0ed1acda",
       "6a3dd8d25d35ea20b344b8d29c821e4e349c291a3b118e9f8aeff96898a89455"),
    "SZ 3.1 on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("e608c18a2c28a76584fb0741a0513024e5a2653dd67bdb8cee09e5dc317d7607",
       "8a8ab7acce08924d5ba591e830525082000d949c50da936d1e6b305c207bb231"),
    "SZ 3.1 on Miranda/density(10x14x14) at 0.001" ->
      ("bab0b3899d27acf47d40fdb1d2e11a6ccccdb6e4258ad10452332ef2718f62a3",
       "dbc82c3539fe2f35e613143ab5a8b1113a269844ed3ba785fa913a71aaa91175"),
    "SZ 3.1 on Miranda/velocityx(10x14x14) at 0.001" ->
      ("2373393438b2fd3e1356f80fc92ada8f7dd0b5248d9e8fbaf430a370415bcafd",
       "4aa4b24352682e4e668431d08b2e0e2e89c1a2894bca4a1a1658f94f47bddda1"),
    "ZFP 0.5.5 on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("cfea26ff1363ebba9c4419c3638a19a28339ff34d6234a342b3e7c53dfa17fd7",
       "cfc4670ae81be91c82c143b11970930bfd1a9ebf1531e65c9e0ecd8575b41c01"),
    "ZFP 0.5.5 on CESM/TS(8x27x54) at 0.001" ->
      ("de98329eb24d1b35fb84e3bbda4767b54b2b08e2bb7e880d78d12d85c6bbf6a5",
       "f4b4d44a93bce97f63cb3fd1561ad14b2de366c7ee5dd80c4499bd15450d991b"),
    "ZFP 0.5.5 on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("9237b2fd2b6c7cc7d727db9e267a0c0d1584f0210bd9723aed8f17004fe3f20a",
       "a0a156304d3e6017c31361dc58ca96498822167a38fe5266c2b6716c18690b93"),
    "ZFP 0.5.5 on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("25f4c8315cb3b1732146874ec7644f510ed1a6a4a808ac3c5f399d433ddc3cac",
       "17a453907ccc88b4c24d8e55db4e0b93fae65e71c9a48c6121f9ada58330a13c"),
    "ZFP 0.5.5 on Miranda/density(10x14x14) at 0.001" ->
      ("48c58c1d07fcb9743ecd751a838d0e63c23a637a659013ac20c661897d34eeff",
       "bb7b6240e87bb8ec272ea94a320ee855a6dc070e4476ce9acbc122524c72260e"),
    "ZFP 0.5.5 on Miranda/velocityx(10x14x14) at 0.001" ->
      ("5eb7425cd785f838a368c33d5429481912eb173bb2c3d82c4bca5644215b747e",
       "32b72256bed0c66fb1c7fd2aeff91ac0b6a30896a5544be35441b0461040ef85"),
    "QoZ 1.1 on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("a04209fad78c8960bb2ea2d26ddaf3e64bc6f6c359ff6ba22eb2fcb826398ad7",
       "e9ef73fcdeb63a8ce58a5dfe6301baaa57d62e5059bd6a3683132076f67d4bc7"),
    "QoZ 1.1 on CESM/TS(8x27x54) at 0.001" ->
      ("0ba04e1618e45e75a42ac0b0f843c662091d1913b80a82fe8e0490892d0acdde",
       "5ef8d0a77e8c6bebdfebad5144753c1aea5b445a5f6845d019027720840fc7ff"),
    "QoZ 1.1 on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("406a2f321234796d2e691116bd4b0e62f2c94fa79868aeda7839404c0ed1acda",
       "6a3dd8d25d35ea20b344b8d29c821e4e349c291a3b118e9f8aeff96898a89455"),
    "QoZ 1.1 on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("e608c18a2c28a76584fb0741a0513024e5a2653dd67bdb8cee09e5dc317d7607",
       "8a8ab7acce08924d5ba591e830525082000d949c50da936d1e6b305c207bb231"),
    "QoZ 1.1 on Miranda/density(10x14x14) at 0.001" ->
      ("c1971756b1c9bb6cd63d7708f21377d68d54f00e274262a2a1526255537327f2",
       "dbc82c3539fe2f35e613143ab5a8b1113a269844ed3ba785fa913a71aaa91175"),
    "QoZ 1.1 on Miranda/velocityx(10x14x14) at 0.001" ->
      ("ac4a507042f544f49bca8f3fe88d5b09d680e0b828ddb858e861e28008cad50c",
       "4aa4b24352682e4e668431d08b2e0e2e89c1a2894bca4a1a1658f94f47bddda1"),
    "SPERR 0.6 on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("f41d255adde40fd0aa352868a3d435e6ea88f6865c96310ec30867791079b1a8",
       "14d56d26abadfc820cd88a0f575939f4a4cf8d128952f1884178672815299394"),
    "SPERR 0.6 on CESM/TS(8x27x54) at 0.001" ->
      ("e08adfc944aab8f69ac263cedf9a914d3871a6c8fb96335651f6c652de407a68",
       "1c3456765326baf403324cf4b14ecc57de305ceec4846a0034d5010697039f38"),
    "SPERR 0.6 on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("946a2bb121d2142a48819d49d50764c097387896f3ef6e2b3ec8fb3b2dbe5d5a",
       "d39bcc8061dcb3428dd63591bb46fb9cb28c17de9b1dea46a1d36b195d78da4a"),
    "SPERR 0.6 on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("c1d7cfdac8edcefc7600ce7dfb77341e0dbe85564b361e130818f57a3a73c9b8",
       "8e8a848f4451530e8be56f40e1d3db4bd1d9c08f6024c3838c3d3afa9adbc8f8"),
    "SPERR 0.6 on Miranda/density(10x14x14) at 0.001" ->
      ("88b61eeb92c4d2605dfcee9c6137eb5e2d0ba5e3e51ded503a6337d1a57a680c",
       "72744de5408454211232eacdf008b2495b52ee3dde895e1e16aff68b2552495b"),
    "SPERR 0.6 on Miranda/velocityx(10x14x14) at 0.001" ->
      ("ab15d570fa4719494290bb3204896c0efec80e1b2727b49306b37f0692f4cfb5",
       "20107496c83fe8daf04d7c2de81ae97e715ede7d31c906ee1db2f1841117b849"),
    "FAZ on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("f1102b865a97ce15ebfe6f3d18741f380ceb09d3383d5abf817b0ba93ca465c4",
       "68c5de34e8fa261f40cccc19df836d120eb6ec34b2dab07962ed4e2f1738ab16"),
    "FAZ on CESM/TS(8x27x54) at 0.001" ->
      ("d56365d3d03007cd7fef5a35b73b98b342dd249d98754f718ae522ea8d5698c1",
       "834543bb117bdae6256b3b76f7ffe8998937344148d79dfe832d358ca80571c5"),
    "FAZ on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("11006eb57724646cdca10ed5518877b70ade711128de9166dab547c289b38639",
       "c3cd1472effc91c09eba1b8011440a318a7f21b7da960686f8a50135c8660f08"),
    "FAZ on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("5b56e19025377619e2205fe8a85c0ce3094f62169c62bb0f0ed814275a5c4abd",
       "4acd51438daa8adb84964491a9f34ab363762ccd7e8aea63b35f18071eff5fec"),
    "FAZ on Miranda/density(10x14x14) at 0.001" ->
      ("77003794e9916db31458d328999ce72f601f2f541936fbd3e6c85f488261e953",
       "6968185a6fe2d020d3da7e3a1017ad9a2b614b9004907a2be42f1d47735cede8"),
    "FAZ on Miranda/velocityx(10x14x14) at 0.001" ->
      ("6dc2d07035c4acad3a157af051675dc81032bc88498b5cc7e698adafed06cbe2",
       "d967c4fa1044bf8d11702723682dd732c2686b269e20d556bcfc96e3765b2f73"),
    "TTHRESH on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("ef82b7049591869e50f17fcdaaa775e441466aa38497e405d073eaa526e331f6",
       "3ab3a71373d0eae83f455795e18666b2bde386376d91c46e5469f56c10fb903f"),
    "TTHRESH on CESM/TS(8x27x54) at 0.001" ->
      ("fa03f53e70be0cb2c97c35a068d7392bfe21765608479a92d09c7b54436cca38",
       "d07dd06bcc48f6511d26df75b598a08f06bf5fd7f64819284a23bc7c4c6043a4"),
    "TTHRESH on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("92bd059c8f5341279f78042f5c34ed0075a6c0bd82a01a21845794b49e354092",
       "22e01ff97d2ca94dba7d7fcda2808c97d84e420e2f31981c1b819ea2a553e2e2"),
    "TTHRESH on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("7ddd6eedb649aa40f8d7278d8ba383e45465851eca30c5c06edd2169d7314922",
       "27c3ed9163112ec01937530d09ffb5f45ba62f39a542ba4276ead5658a969d3a"),
    "TTHRESH on Miranda/density(10x14x14) at 0.001" ->
      ("fe0ab1f64a760e09019b4410c5719f6db67cbf6f58bf15feaf732b5216a18fba",
       "54e321333c069e3e19a23010ef70f9df560cb3763d06ee49159583a5733524eb"),
    "TTHRESH on Miranda/velocityx(10x14x14) at 0.001" ->
      ("3a2e36619481aa700f3c40e88f34b5b39a2f6249df144b9e0c93a9a28b65128b",
       "76b3fd4535f3c4cba51a248f3f30aea33309e09fa8035ba94b03e3798a53eb24"),
    "HPEZ on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("64f35b1867e33b949cf7557cbf915198a62276705ec2a908ab2e4a95c31f1de8",
       "68c5de34e8fa261f40cccc19df836d120eb6ec34b2dab07962ed4e2f1738ab16"),
    "HPEZ on CESM/TS(8x27x54) at 0.001" ->
      ("0bd429b378b2a06da8c0b0d5a879d07167654aa1de06dee3d367d6e433b031f8",
       "834543bb117bdae6256b3b76f7ffe8998937344148d79dfe832d358ca80571c5"),
    "HPEZ on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("aa2e8823d6995f977ce046d33758dcddb60e0283de6a3a924a89be76faf855d4",
       "c3cd1472effc91c09eba1b8011440a318a7f21b7da960686f8a50135c8660f08"),
    "HPEZ on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("339856d32046d3eb01c020fa7689d9a71934d7243686cbf823894b28896e0b64",
       "4acd51438daa8adb84964491a9f34ab363762ccd7e8aea63b35f18071eff5fec"),
    "HPEZ on Miranda/density(10x14x14) at 0.001" ->
      ("524ce7d9f4919b10f57f184b28c26d552ad6da47ac0a3c13c7a028d578bd449b",
       "6968185a6fe2d020d3da7e3a1017ad9a2b614b9004907a2be42f1d47735cede8"),
    "HPEZ on Miranda/velocityx(10x14x14) at 0.001" ->
      ("4e61a0572bd74333b6c887b0b9c9439a9d93f79ee190faa76af1b6051d5e7f34",
       "d967c4fa1044bf8d11702723682dd732c2686b269e20d556bcfc96e3765b2f73"),
    "SZ 3.1 on Miranda/density(10x14x14) at 0.01" ->
      ("1c35012d04483bd12b8492d3c3b8fd5618cd8ce832811f726f3ad0e07dff3f3a",
       "e6aab66fd800767f6a1c11e993795c19b83fa81f1301912c72d216d87a430b3c"),
    "SZ 3.1 on Miranda/density(10x14x14) at 1.0E-4" ->
      ("d235be25dd6208ff2771277b78c6479876d4951473cf2bff20d31a35bd4ec6f4",
       "859418a42addf17524489b6d32d94062f2708d3bfaee61cfed8715737314ca69"),
    "ZFP 0.5.5 on Miranda/density(10x14x14) at 0.01" ->
      ("d3f9e36a22780b727af621569c024e2b6a0766459bac4083202ab900bd221eb7",
       "97b7fff4042766dce1f08beef79c921e134344defdb1282104e310ec1249e0a7"),
    "ZFP 0.5.5 on Miranda/density(10x14x14) at 1.0E-4" ->
      ("ba55dd4c92eb0a66645cad91ebd05f6d172b9e87346114014d3d6763e4510edb",
       "7d741b67125f8304b4f3a6a8387434934e3b284140aafd68caed92994e51cfcf"),
    "QoZ 1.1 on Miranda/density(10x14x14) at 0.01" ->
      ("e43ac8cb97d6a39d8ed8111e458ad879687eb95858cc41932084ba71c0920e80",
       "e6aab66fd800767f6a1c11e993795c19b83fa81f1301912c72d216d87a430b3c"),
    "QoZ 1.1 on Miranda/density(10x14x14) at 1.0E-4" ->
      ("f1dd2e87f9abb76d1f5868924dcdeb8f47d0c9d12b62bf4173fe9e014b51ce2a",
       "859418a42addf17524489b6d32d94062f2708d3bfaee61cfed8715737314ca69"),
    "SPERR 0.6 on Miranda/density(10x14x14) at 0.01" ->
      ("d6f27c7dd84ec9ef6bd7d8b6cb8ed37e5b9351e52585c500b1de7252f5d01936",
       "4222aa2190a61cb3c058866f615432085ce131262d5bdd92f5b0fa77b0bd7215"),
    "SPERR 0.6 on Miranda/density(10x14x14) at 1.0E-4" ->
      ("7b2fdfeba347c5dec45695058404ced5306841a8f3bceaef5da76c9e1013adc1",
       "6f5bf71ffbaf5e74f34c308da1c6782951ef395f05d91846d8226c63a8965d57"),
    "FAZ on Miranda/density(10x14x14) at 0.01" ->
      ("050b8ebbfe0c67cff182d11d21dd55e9855ba22cc45193f46209b7386c540553",
       "afb3450505deb227d22a728d59ad6ee79a7e98fb884950b6c39cb609f781c530"),
    "FAZ on Miranda/density(10x14x14) at 1.0E-4" ->
      ("ad228478afeb4fb7cae0bce26e928b625b68f802b6d9076e7510959bc67b96e8",
       "7ed57fbee3704f2c966a0704db8f69ad220bd6f70db8ca8b34c941df8fdb5bc8"),
    "TTHRESH on Miranda/density(10x14x14) at 0.01" ->
      ("ff6195f6f50a5470447a625b8c55e9ec4d62be3fd0ddeddb83460f61d6bb6236",
       "232bef3c91c8d7761dae82556d56e62a99332a9bb14d136767e59cf54dabe1fa"),
    "TTHRESH on Miranda/density(10x14x14) at 1.0E-4" ->
      ("a85837eec2c0a6e221e89d060323f4cbac6111e12ec4d459dabc2d63ddacfc3e",
       "0097036ae09bf6a8cc3bab9d4469bb780f371dd9fba514a5a24b805e70f0d82d"),
    "HPEZ on Miranda/density(10x14x14) at 0.01" ->
      ("59a3ecf6da23b4f70a0a72d2ffc70397329e00d897d5a13c3d45574656d14df4",
       "afb3450505deb227d22a728d59ad6ee79a7e98fb884950b6c39cb609f781c530"),
    "HPEZ on Miranda/density(10x14x14) at 1.0E-4" ->
      ("5e1719e747014be349c4cbd4f6bc24353121c6bea2b08391c75ec7be1c600d16",
       "7ed57fbee3704f2c966a0704db8f69ad220bd6f70db8ca8b34c941df8fdb5bc8"),
    "HPEZ on SCALE/QS(8x23x23) at 0.001" ->
      ("88a4eec3e6828b28ad9a1faa18256e9c6deb0eebcf5ebf98413320cde0e9342a",
       "8200d99feac2da0abd19709125ee1a62c82179d55f91f3ecbc06d944d26a9e99"),
    "HPEZ on SCALE/U(8x23x23) at 0.001" ->
      ("0a211783fe204d014685abe962a06cef5043a9fb8716dc7645cca6459e37fd69",
       "a60ee60559f7e4a34e447cbc54c9d0261cbfecd6c8db220b9dfc4d7f3ee04742"),
    "HPEZ on JHTDB/pressure-1(14x14x14) at 0.001" ->
      ("40c810189b0037cb4d8c3b05f35a5d91ed9c020521079fb0baf606ad7053d407",
       "e0601e74c35a96ad94fa7a4ff79123ddb54a5d84ff58d8891aa0059b524b913d"),
    "HPEZ on JHTDB/pressure-2(14x14x14) at 0.001" ->
      ("6939dc42c60a4b77284702679991aecd7b6211957fd08b0bf6402c6e0ae7f245",
       "3b91c44afe575951266a3eb5104e626975439cba6df70f7a38acddee6d750faf"),
    "HPEZ on SegSalt/velocity(19x19x8) at 0.001" ->
      ("7b7333f4175f663952666660860d99784762b34caa3774c9af3b213a9d76d1a1",
       "c25306dc93745f972a174ec233cbe785c06e973bc1e0ed46f08cc3bf074f7bd0"),
    "HPEZ on SegSalt/overthrust(19x19x8) at 0.001" ->
      ("90beeae67e982222705d74f8fb7dab991999c279fe33feb8d052fe74e92c9e85",
       "d504c83dae4ea7ede2e7c92132eceb99557df3541ea936daf50a3deaae9e682f"),
    "HPEZ (w/o FVFI) on CESM/CLDHGH(8x27x54) at 0.001" ->
      ("26e28053a4513719d1de9fd034e81849a86bed0a2d41572cff30523beb3d604e",
       "90d20e48c269e7b099816aee99cb3a6f66883b2acc4f8cc50617eadb8744f10f"),
    "HPEZ (w/o FVFI) on CESM/TS(8x27x54) at 0.001" ->
      ("02b925d09088c0b045a542086deda5bd731c439dce302ce5fb19b488ae4420df",
       "1974c70ba1ce2d18d8379c5255df3299d8564e746d25f6807f2103a66adc02cc"),
    "HPEZ (w/o FVFI) on RTM/snapshot-1400(17x17x9) at 0.001" ->
      ("ccee9673b705b4c95903d05a7713e0b312e55e2b526effbdb0d9c56526e04859",
       "c3cd1472effc91c09eba1b8011440a318a7f21b7da960686f8a50135c8660f08"),
    "HPEZ (w/o FVFI) on RTM/snapshot-2000(17x17x9) at 0.001" ->
      ("34d1a0e1cf415b37dd8828be927f75b3521f7dd3250b6b9b9b47c0748c5af8fe",
       "4acd51438daa8adb84964491a9f34ab363762ccd7e8aea63b35f18071eff5fec"),
    "HPEZ (w/o FVFI) on Miranda/density(10x14x14) at 0.001" ->
      ("480edf302a274c8bdc3fe8eedd482fa11351ffc0b1987625c191fdd67e4319a4",
       "6968185a6fe2d020d3da7e3a1017ad9a2b614b9004907a2be42f1d47735cede8"),
    "HPEZ (w/o FVFI) on Miranda/velocityx(10x14x14) at 0.001" ->
      ("371cf3a2fbdbff94a5737fe83879f21de11b637bb2a976575b42bbc4257b8343",
       "d967c4fa1044bf8d11702723682dd732c2686b269e20d556bcfc96e3765b2f73"),
    "HPEZ (psnr) on Miranda/density(10x14x14) at 0.001" ->
      ("524ce7d9f4919b10f57f184b28c26d552ad6da47ac0a3c13c7a028d578bd449b",
       "6968185a6fe2d020d3da7e3a1017ad9a2b614b9004907a2be42f1d47735cede8"),
    "QoZ 1.1 (psnr) on Miranda/density(10x14x14) at 0.001" ->
      ("c1971756b1c9bb6cd63d7708f21377d68d54f00e274262a2a1526255537327f2",
       "dbc82c3539fe2f35e613143ab5a8b1113a269844ed3ba785fa913a71aaa91175"),
    "HPEZ on TestGrids.smooth1D at 0.001" ->
      ("ff802e5cc111ad8ce954b4bf9134f0780dc70fd3887ec342bcdebebd087eab69",
       "a2da33a4fd63324ee8b26e768ea77020fd09b227373aa7cd033cadfd758a6047"),
    "HPEZ on TestGrids.smooth2D at 0.001" ->
      ("be912c29f60bfa272063c81db56bb117dc67df536706e8afed71fe4fe0a44756",
       "551dbe9c2a9bde225211d1b841f99889ed968f58d1b66cf04aa58a5068270f61"),
    "HPEZ on TestGrids.roughDim0 at 0.001" ->
      ("bf3c47bb05b07512b2af19ae85af1c5671d7bdfc45102964146708bf3b7803a3",
       "b9f76a2f5f3eb2dddfc88522ba46a4fffb6c80b7e51c4ac557c350b075bbde31"),
    "HPEZ (w/o FVFI) on TestGrids.smooth1D at 0.001" ->
      ("ff802e5cc111ad8ce954b4bf9134f0780dc70fd3887ec342bcdebebd087eab69",
       "a2da33a4fd63324ee8b26e768ea77020fd09b227373aa7cd033cadfd758a6047"),
    "HPEZ (w/o FVFI) on TestGrids.smooth2D at 0.001" ->
      ("38fe90ca8ab5007120def26e98ac8bb2b1044f4c69e29770b2bb941e4e755487",
       "551dbe9c2a9bde225211d1b841f99889ed968f58d1b66cf04aa58a5068270f61"),
    "HPEZ (w/o FVFI) on TestGrids.roughDim0 at 0.001" ->
      ("08ca10b610a1b219771bbd92f1cd4e878fb0f5d5d51180aa46b42b6698846a84",
       "b9f76a2f5f3eb2dddfc88522ba46a4fffb6c80b7e51c4ac557c350b075bbde31"),
    "QoZ 1.1 on TestGrids.smooth1D at 0.001" ->
      ("d94b730f33c566ee3803eee9eebbaedff3fb9d3401311d004c32accc392ae219",
       "be4debd4743cb4ddf3150a85cad55ff8b545bae7364d4b0bcd391e13971c575d"),
    "QoZ 1.1 on TestGrids.smooth2D at 0.001" ->
      ("114f0acc5d319a875d574d6470a8e00a497520eb66c99a8ee28728637a3af4b4",
       "46909eb5d9213eaf6cbd563473e3c07c8c8b710c03b36759027ab297d4388263"),
    "QoZ 1.1 on TestGrids.roughDim0 at 0.001" ->
      ("47e9e4c5344e34c595f9c0884aa2f137fc6b781152cbda5d4cdb03f125dc076f",
       "b937d95c4e00f507e735bd95175bbc94f749d3318aff3359f6ea77b1052ec633"),
    "SZ 3.1 on TestGrids.smooth1D at 0.001" ->
      ("ff802e5cc111ad8ce954b4bf9134f0780dc70fd3887ec342bcdebebd087eab69",
       "a2da33a4fd63324ee8b26e768ea77020fd09b227373aa7cd033cadfd758a6047"),
    "SZ 3.1 on TestGrids.smooth2D at 0.001" ->
      ("75c769c51122a291dfb6bc9b07f0c81edaa61857da3a86503042743a5237613b",
       "c0a2fa6d23083511d06a48d8d3055b3b28d41fe69b46a31fc19c1209485209dc"),
    "SZ 3.1 on TestGrids.roughDim0 at 0.001" ->
      ("59ab92e3f4ec202ab87d4ce8f515d37e5f800240cdc2c94faf9d25ed5a798af4",
       "2ff5033377df318f5f771a35f330e0eb932c95bb02f337929253484f7e076964"),
    "HPEZ on Miranda/density(64x96x96) at 1.0E-5" ->
      ("9b7b3c1201df4ec528d20bb73b18a1d8834219428cd19c99f1eb95cf51eea90a",
       "b9f7ff81a5118ec23686bef35bf001cc8bbe6184159a120b9ac68b9b73206e50"),
    "HPEZ on TestGrids.ints2D at 1.0E-5" ->
      ("882d9303636e146d746edd1ba5f62d619fbb9a4a074f8521caec1e313131f959",
       "2014de5c16b70cdfd4b9cc8300a34c3471eed6ba002e29a82d33a4f39cf57de2"),
    "plan linear 1D fvfi=true on 17x19x23" ->
      ("142d1616bf9df9c5bfcf62450463ef201914181172335840eeee1e70fbf3ab00",
       "759755520c2493f5bae75783bc674737ca8e8016d0ca540ab4a08c201dd43b2d"),
    "plan linear 1D fvfi=false on 17x19x23" ->
      ("0063a4b36e5cb35cd67af4f887d1ba1ae1bc90161bff67d73dc0464b72291834",
       "759755520c2493f5bae75783bc674737ca8e8016d0ca540ab4a08c201dd43b2d"),
    "plan linear 1D same-level flag fvfi=true on 17x19x23" ->
      ("142d1616bf9df9c5bfcf62450463ef201914181172335840eeee1e70fbf3ab00",
       "759755520c2493f5bae75783bc674737ca8e8016d0ca540ab4a08c201dd43b2d"),
    "plan linear 1D same-level flag fvfi=false on 17x19x23" ->
      ("0063a4b36e5cb35cd67af4f887d1ba1ae1bc90161bff67d73dc0464b72291834",
       "759755520c2493f5bae75783bc674737ca8e8016d0ca540ab4a08c201dd43b2d"),
    "plan not-a-knot 1D fvfi=true on 17x19x23" ->
      ("5a17f73cb83fb851bbd1e8ba22cd6e241ef8bd8a127434646ed92f65e0af51f9",
       "051e6c6efd6615539aeb3d5ae8b243f1d061d239eb2f4cdad51ae8f0935c9a70"),
    "plan not-a-knot 1D fvfi=false on 17x19x23" ->
      ("9eb12ff990ae2ddddb69d29ef7e01630b100ab72971f164b7c5de56244a160d4",
       "051e6c6efd6615539aeb3d5ae8b243f1d061d239eb2f4cdad51ae8f0935c9a70"),
    "plan not-a-knot 1D reversed fvfi=true on 17x19x23" ->
      ("b24e2a8dc6dd0fa46245a4cf54b6cb183bffb672be9758b77f7e4cfa59c6e9a7",
       "85823bd2658eef3fb5691598ba11e571fbcababd9384bb9347b53cfe3c1b43e5"),
    "plan not-a-knot 1D reversed fvfi=false on 17x19x23" ->
      ("41b67db8bf88d4dc55623f84c2c8c00c63d5907af08a5c0b24408e57c4696925",
       "85823bd2658eef3fb5691598ba11e571fbcababd9384bb9347b53cfe3c1b43e5"),
    "plan natural 1D fvfi=true on 17x19x23" ->
      ("acd375989220090b8815b512bae5064fab9c57712292615929f766a7fee7f4c6",
       "79a24d6a4a3719bcad094b9280a3e3c6d17be273f0c8ddfff0862ae5bf087d99"),
    "plan natural 1D fvfi=false on 17x19x23" ->
      ("d1ae36d33c8ac993b3b9929a66150c36f17ce0b2f5aa1a580689e7bbe2634547",
       "79a24d6a4a3719bcad094b9280a3e3c6d17be273f0c8ddfff0862ae5bf087d99"),
    "plan not-a-knot 1D same-level fvfi=true on 17x19x23" ->
      ("2725a252f767f2ff3f105bd6d6fa26e04d990b7ece04a2432e9cb18f84dce48c",
       "5bdd86640b5bee787bb22ee235fe25a21530dbbbfd7900773162be19450cc0e9"),
    "plan not-a-knot 1D same-level fvfi=false on 17x19x23" ->
      ("199a5200cda005dc95c0c0031b97d423dd822aad352e1f27d8383a42781e1770",
       "5bdd86640b5bee787bb22ee235fe25a21530dbbbfd7900773162be19450cc0e9"),
    "plan natural 1D same-level fvfi=true on 17x19x23" ->
      ("0264cbd346037894f7ecabb7a9adeea15dc3d9726f2f6c23515fd39a7970f1c4",
       "b8ee200a9150768a8534311d96598e089f8b29930a19cc383d2dd87ca5b0505b"),
    "plan natural 1D same-level fvfi=false on 17x19x23" ->
      ("8927d1a23c6ba96a85cb8754cb4ccc8bd7dcbf3c06990cd035c907c9923b6044",
       "b8ee200a9150768a8534311d96598e089f8b29930a19cc383d2dd87ca5b0505b"),
    "plan linear multi-dim fvfi=true on 17x19x23" ->
      ("ab8b72497f2c0a0d2991c0d079ccdd1e3358cb62820087fd8343aaf7d63fa2cd",
       "42af733126b548f64e1a1dcb52a7736b20271697c743cfd267c9b2a69aed43b2"),
    "plan linear multi-dim fvfi=false on 17x19x23" ->
      ("ab8b72497f2c0a0d2991c0d079ccdd1e3358cb62820087fd8343aaf7d63fa2cd",
       "42af733126b548f64e1a1dcb52a7736b20271697c743cfd267c9b2a69aed43b2"),
    "plan not-a-knot multi-dim fvfi=true on 17x19x23" ->
      ("2eff5556a68676418d65075948585b3d2d4471bc93262c239ff244f5ca927789",
       "0c9c2649a8fb9c5e913cd0e3b7c07836692e7e1c10887b3d0e9e42fb778e24f2"),
    "plan not-a-knot multi-dim fvfi=false on 17x19x23" ->
      ("2eff5556a68676418d65075948585b3d2d4471bc93262c239ff244f5ca927789",
       "0c9c2649a8fb9c5e913cd0e3b7c07836692e7e1c10887b3d0e9e42fb778e24f2"),
    "plan natural multi-dim fvfi=true on 17x19x23" ->
      ("f988cbf890fa468d6b07137909503e9dd3aa9f495238e286cbc7498d65bda80d",
       "66e0e5bd2541a691683672b1c67422735985e77aae5fd57025c37c9a5366b0f8"),
    "plan natural multi-dim fvfi=false on 17x19x23" ->
      ("f988cbf890fa468d6b07137909503e9dd3aa9f495238e286cbc7498d65bda80d",
       "66e0e5bd2541a691683672b1c67422735985e77aae5fd57025c37c9a5366b0f8"),
    "plan block override not-a-knot 1D on 40^3" ->
      ("7f948d7b6f8eb66cf99cb1a312a8cc9c807407732746980cd0af5f3bf0712c06",
       "4816f1436b933917cbbbaee98b1c2b77e5528bb636fbea212ccadbc47374ece2"),
    "plan block override natural 1D same-level on 40^3" ->
      ("c6b20ab739c5987f81155896907a214684df5bc3b6fdbdd066f9b4edb5b31b1a",
       "fc716fe85ef6edb825fc2b0aaa4b8fa020a49cd4cd23ddbd24b4b6c53c00c25f"),
    "plan block override natural multi-dim on 40^3" ->
      ("c4d9f9f7fd716bbe222c041eaf8d367db271993922cd4cb84100ab06f00c2dd6",
       "eb520b2d6bd22c301e3cc86dc790d6d1dc2808124cb2ac9ef01a4e67e9f56ad1"),
    "plan frozen dim 0 multi-dim on roughDim0" ->
      ("42c4aacfb7c0cf228c4a5b763da1a9f9504e0b043135c074a6c8a1d264dd497a",
       "df50282813e1251fc22c33f117920b3e26b61cd49570deeec941fcf6f49af495"),
    "plan frozen dim 2 same-level on 12x24x24" ->
      ("bef0a40299c7f03c7c43204615ea86f4fe590e5309a7ddb16422e40b9b178aaa",
       "ea189da46cb868fad8b79162c6b6b491c60fff7139f2121f4e1686f3e65280ff"),
    "plan 4-D multi-dim" ->
      ("f12de5fa4dbe8e9aedd5fafca61ea08b8439437fe8ec8c7e00fc9b2e01b9b0a2",
       "a4956df06152f41e87a2a99b170ca9a7c6d02ec9883f4ee3cdcda145b5dae257"),
    "plan 4-D not-a-knot 1D same-level no fvfi" ->
      ("889c5f40038cc337c02da05902624793b893a7bfc373f260b4bacac7ce9a4a8d",
       "a1f111c31b9a17520956a01e36db1653377c93fd57adaad305581643ebc515ee"),
    "plan 1-D natural same-level" ->
      ("7c47d7fa924a1da3df5297c6c9ac2f03a7c975236db08ef5f496bd7b7abb7307",
       "348e57afd6ede09caf50dfb102d77c253fcf055bf57daf697ee5560c941da50f"),
    "lorenzo order 1 on TestGrids.smooth1D at 1.0E-4" ->
      ("7a6612c93d2fa9e6dc6eebbb3a2755766cff44ca684799ce101013995f6d80c3",
       "970d79c5db2980752172c1794c322e9124fae25da3cec2aa288bd054e7a9a0ab"),
    "lorenzo order 1 on TestGrids.smooth2D at 1.0E-4" ->
      ("8e96751815e155c63a1b2ec4e8f4098cc12016d8c13a2e1137557201ad295423",
       "ecebbe1cba6caac9ddfacae896b46a567b8ccf596a8e1528edf8a421a2230474"),
    "lorenzo order 1 on TestGrids.ints2D at 0.5" ->
      ("d36bf1a6ffc5f89d0926a1413b525ffbb64986d0124b8e1db60b3589b1744170",
       "2014de5c16b70cdfd4b9cc8300a34c3471eed6ba002e29a82d33a4f39cf57de2"),
    "lorenzo order 1 on 17x19x23 at 1.0E-4" ->
      ("1f0b30c66ec7facf040d9f6b4042565757d1ffafd26979b04d143259fdf92e07",
       "78f361b4faa79a53c3b22f3526e818f0ecf0156c4a68342316287473162d58b7"),
    "lorenzo order 1 on 1x2x30 at 1.0E-4" ->
      ("8b9548d98fecc118631a29067060537089a182f2d433c913cf911e58b1f96fd2",
       "07d400f6be22ecab7d5dfe8e486a33707dd8c3fc9c75ef1ee9605afddc645a53"),
    "lorenzo order 1 on TestGrids.noise3D at 1.0E-6" ->
      ("619118c46124796365f55ca04d2f2c6abdba2b37fc834d4e61bfcb2c3d0f2485",
       "a163de668688692cc79166add9140df612f011d94d2e187f18aa79e0233101ca"),
    "lorenzo order 1 on 4-D at 0.001" ->
      ("3bf050333803eabbdee9f43870787488f0310313d7d0b33e8416c0c1c8a18065",
       "05e9362071599016d44baddfef30b04f8f65d8f169eb73064aef192df1b2016c"),
    "lorenzo order 2 on TestGrids.smooth1D at 1.0E-4" ->
      ("cf64dd61c52db85858a58af3e0197e2f580f3997b5576cd82b04384ae2624b1d",
       "719a34c30cce91ea290213c9625d0c2648f1eccedc311df2570eea0ab3e11bee"),
    "lorenzo order 2 on TestGrids.smooth2D at 1.0E-4" ->
      ("06efb7788dee76f495110be5f6ab7d5070591bdb25528b076b0e5a49b7b4ad67",
       "ff0f8b7e3033623b970769b87fbef557c7b67a5fd0b8079a2bf9c4cd23593f33"),
    "lorenzo order 2 on TestGrids.ints2D at 0.5" ->
      ("7c4622f63968437c7d131a8410337eed7b46ced83d15c807bf27813fa58a5698",
       "2014de5c16b70cdfd4b9cc8300a34c3471eed6ba002e29a82d33a4f39cf57de2"),
    "lorenzo order 2 on 17x19x23 at 1.0E-4" ->
      ("83b203e10c49aa9f9d3c7cd21918a616052676383a6f4f19f8467c70a58d3bb9",
       "4a1e807aa6ce8f92c9a38d4c1bfd6ad86a4889ee40995d0cbd0f315d7352924c"),
    "lorenzo order 2 on 1x2x30 at 1.0E-4" ->
      ("a0cdc860bdefc9add1eeb5e95f67b0b3f811ca76a93cd7fa4b9e8a2824d9c912",
       "5eb41c786119ccb6cffc8e51b0c338e8fb9e4dfe119e89df7b4fd74d9df7288c"),
    "lorenzo order 2 on TestGrids.noise3D at 1.0E-6" ->
      ("0b7734ebe0ae58a1af82cf3b7947d36e4ba839ac6e1c56ffd88b61f738757547",
       "29b447a4c55bda023536072390f1fd476e7de1028726aca4f52d18aeb2653721"),
    "lorenzo order 2 on 4-D at 0.001" ->
      ("562d2f946d7e75113bff0ef7a4f8f9e77c875c4c487f42821783ea8b403f1f1f",
       "4c2c1b316678bda039bdcef4c4885adfdb0059558f24ed72c45b616d5baa58ac"),
    "plan noise multi-dim at 1e-5" ->
      ("c114ad6fa1075670dd854d98f3f4134155ad095bd942fc5bd2c4fa17486e0662",
       "12d45088826b78339557f27265a798f62d209c29405266806c917ee8a5751284")
  )
}
