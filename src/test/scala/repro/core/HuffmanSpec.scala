package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

class HuffmanSpec extends AnyFunSuite {

  private def roundTrip(symbols: Array[Int]): Unit = {
    val enc = Huffman.encode(symbols)
    val dec = Huffman.decode(enc)
    assert(dec.toSeq == symbols.toSeq)
  }

  test("empty input") { roundTrip(Array.emptyIntArray) }

  test("single symbol repeated") { roundTrip(Array.fill(100)(42)) }

  test("one occurrence of one symbol") { roundTrip(Array(7)) }

  test("two symbols") { roundTrip(Array(1, 2, 1, 1, 2, 1)) }

  test("skewed distribution compresses below 8 bits/symbol") {
    val rnd = new Random(1)
    val symbols = Array.fill(100000)(if (rnd.nextDouble() < 0.95) 5 else rnd.nextInt(20))
    val enc = Huffman.encode(symbols)
    roundTrip(symbols)
    // Huffman's floor is 1 bit/symbol (the Zstd stage of the pipeline
    // squeezes below that); allow table overhead on top.
    assert(enc.length * 8.0 / symbols.length < 1.5,
      s"expected < 1.5 bit/sym for 95%-skewed input, got ${enc.length * 8.0 / symbols.length}")
  }

  test("uniform distribution round-trips") {
    val rnd = new Random(2)
    roundTrip(Array.fill(10000)(rnd.nextInt(256)))
  }

  test("large alphabet (quantizer-style codes around radius)") {
    val rnd = new Random(3)
    val radius = 32768
    val symbols = Array.fill(50000)(radius + (rnd.nextGaussian() * 30).toInt)
    roundTrip(symbols)
  }

  test("symbols including zero (outlier escape code)") {
    roundTrip(Array(0, 5, 0, 5, 5, 0, 12))
  }

  test("mutable.LongMap iterates in the order Huffman.codeLengths breaks heap ties by") {
    val m = mutable.LongMap.empty[Int]
    (0 until 16).foreach(k => m.update(k.toLong, k))
    val order = mutable.ArrayBuffer.empty[Int]
    m.foreachValue(order += _)
    assert(order == Seq(0, 5, 10, 15, 13, 8, 2, 12, 14, 9, 11, 1, 4, 6, 7, 3),
      "mutable.LongMap now iterates keys 0..15 inserted in ascending order as " + order.mkString(", ") +
      ". Huffman.codeLengths feeds equal-weight leaves to its heap in this order, so this change in " +
      "the Scala library would re-code every stream: that, not a codec change, is why GoldenStreamSpec fails.")
  }

  test("negative symbols rejected") {
    intercept[IllegalArgumentException](Huffman.encode(Array(-1)))
    // so are symbols at or above 2^21
    intercept[IllegalArgumentException](Huffman.encode(Array(1, 1 << 21)))
  }

  test("encoded size tracks entropy for geometric distribution") {
    val rnd = new Random(4)
    val symbols = Array.fill(100000) {
      var k = 0
      while (rnd.nextDouble() < 0.5 && k < 30) k += 1
      k
    }
    val enc = Huffman.encode(symbols)
    val bitsPerSym = enc.length * 8.0 / symbols.length
    val h = -symbols.groupBy(identity).values.map { g =>
      val p = g.length.toDouble / symbols.length
      p * math.log(p) / math.log(2)
    }.sum
    assert(bitsPerSym < h + 1.0, s"huffman $bitsPerSym should be within 1 bit of entropy $h")
  }

  /** Re-emits an encoded blob with its code lengths and payload replaced. */
  private def rewrite(enc: Array[Byte], lens: Array[Int] => Array[Int],
                      payload: Array[Byte] => Array[Byte]): Array[Byte] = {
    val r = new ByteReader(enc)
    val n = r.readVarInt()
    val size = r.readVarInt().toInt
    val entries = Array.fill(size)((r.readVarInt(), r.readByte()))
    val body = r.readBlob()
    val w = new ByteWriter()
    w.writeVarInt(n)
    w.writeVarInt(size.toLong)
    entries.map(_._1).zip(lens(entries.map(_._2))).foreach { case (sym, l) => w.writeVarInt(sym); w.writeByte(l) }
    w.writeBlob(payload(body))
    w.toBytes
  }

  test("codes longer than one table lookup round-trip") {
    // Fibonacci frequencies give the deepest Huffman tree for their size.
    val fib = Iterator.iterate((1, 1)) { case (a, b) => (b, a + b) }.map(_._1).take(22).toArray
    val symbols = fib.zipWithIndex.flatMap { case (f, s) => Array.fill(f)(s * 3 + 1) }
    val shuffled = new Random(8).shuffle(symbols.toSeq).toArray
    roundTrip(shuffled)
  }

  test("a payload that ends early raises") {
    val rnd = new Random(9)
    val enc = Huffman.encode(Array.fill(5000)(100 + (rnd.nextGaussian() * 20).toInt))
    val cut = rewrite(enc, identity, p => p.take(p.length / 2))
    intercept[IllegalArgumentException](Huffman.decode(cut))
    intercept[IllegalArgumentException](Huffman.decode(rewrite(enc, identity, _ => Array.emptyByteArray)))
  }

  test("an over-subscribed code table raises") {
    val enc = Huffman.encode(Array(1, 2, 3, 1, 2, 3, 3))
    intercept[IllegalArgumentException](Huffman.decode(rewrite(enc, _.map(_ => 1), identity)))
    intercept[IllegalArgumentException](Huffman.decode(rewrite(enc, _.map(_ => 0), identity)))
  }

  test("a bit pattern that starts no code raises") {
    // Lengths 1, 2, 3 assign 0, 10 and 110 and leave 111 unassigned.
    val enc = Huffman.encode(Array(1, 1, 1, 1, 2, 2, 3))
    val incomplete = rewrite(enc, _ => Array(1, 2, 3), p => Array.fill(p.length)(-1.toByte))
    intercept[IllegalArgumentException](Huffman.decode(incomplete))
  }

  test("decode(encode(xs)) returns xs over random lengths, alphabets, offsets and skews") {
    // Symbol = offset + ⌊alphabet · u^(1+skew)⌋ for uniform u: a skew of 0
    // spreads the symbols evenly, a large one piles them onto the offset.
    val inputs = for {
      n <- Gen.frequency(1 -> Gen.choose(0, 2), 6 -> Gen.choose(3, 4000), 1 -> Gen.choose(20000, 80000))
      alphabet <- Gen.frequency(3 -> Gen.choose(1, 64), 3 -> Gen.choose(65, 5000), 1 -> Gen.choose(5001, 70000))
      offset <- Gen.frequency(2 -> Gen.const(0), 2 -> Gen.choose(0, 40000), 1 -> Gen.const((1 << 21) - alphabet))
      skew <- Gen.choose(0.0, 12.0)
      seed <- Gen.long
    } yield {
      val rnd = new Random(seed)
      Array.fill(n)(offset + math.min(alphabet - 1, (alphabet * math.pow(rnd.nextDouble(), 1 + skew)).toInt))
    }
    val prop = Prop.forAll(inputs)(xs => Huffman.decode(Huffman.encode(xs)) sameElements xs)
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20241)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  test("randomized fuzz (seeded)") {
    val rnd = new Random(5)
    for (_ <- 0 until 10) {
      val n = rnd.nextInt(2000)
      val alphabet = 1 + rnd.nextInt(500)
      roundTrip(Array.fill(n)(rnd.nextInt(alphabet)))
    }
  }
}

class LosslessSpec extends AnyFunSuite {

  test("round-trip small") {
    val data = "hello zstd world".getBytes
    assert(Lossless.decompress(Lossless.compress(data)).toSeq == data.toSeq)
  }

  test("round-trip empty") {
    assert(Lossless.decompress(Lossless.compress(Array.emptyByteArray)).isEmpty)
  }

  test("round-trip binary with all byte values") {
    val data = Array.tabulate[Byte](4096)(i => (i % 256).toByte)
    assert(Lossless.decompress(Lossless.compress(data)).toSeq == data.toSeq)
  }

  test("compresses repetitive data substantially") {
    val data = Array.fill[Byte](100000)(7)
    val c = Lossless.compress(data)
    assert(c.length < data.length / 50)
    assert(Lossless.decompress(c).toSeq == data.toSeq)
  }

  test("random data round-trips (seeded)") {
    val rnd = new Random(6)
    val data = Array.fill[Byte](50000)(rnd.nextInt(256).toByte)
    assert(Lossless.decompress(Lossless.compress(data)).toSeq == data.toSeq)
  }
}
