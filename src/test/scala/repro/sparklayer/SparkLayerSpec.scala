package repro.sparklayer

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkException
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import repro.{Oracle, SparkSpec}
import repro.core.{Compressor, HPEZ, Metrics}
import repro.data.SciData
import repro.zfp.ZfpLike

/** Spark integration tests: distributed block generation, per-partition
  * compression UDFs, Parquet round-trip, and DataFrame aggregations
  * validated against the DuckDB oracle.
  */
class SparkLayerSpec extends SparkSpec {

  private lazy val ref = SciData.fields("Miranda", shrink = 0.3).head // 20×29×29
  private lazy val blockSide = 16
  private lazy val fields =
    Seq(ref, SciData.fields("CESM", shrink = 0.12).head, SciData.fields("APS", shrink = 0.1).head)

  private def tempPath(name: String): String =
    java.nio.file.Files.createTempDirectory("repro-parquet").toString + "/" + name

  /** `body`'s result and the number of Spark jobs it started. The jobs run
    * in a job group of their own; a marker job in that group runs last,
    * and since a listener receives events in order, the marker's end means
    * every earlier job start has been counted.
    */
  private def jobsStartedBy[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val group = s"job-count-${java.util.UUID.randomUUID}"
    val started = new AtomicInteger
    val markerEnded = new CountDownLatch(1)
    val listener = new SparkListener {
      private var markerJob = -1
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group) {
          if (e.properties.getProperty("spark.job.description") == "marker") markerJob = e.jobId
          else started.incrementAndGet()
        }
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (e.jobId == markerJob) markerEnded.countDown()
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      val result = body
      sc.setJobDescription("marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerEnded.await(60, TimeUnit.SECONDS), "the marker job's end never arrived")
      (result, started.get)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("distributed block generation matches driver-side generation exactly") {
    val blocks = BlockStore.blocksDS(spark, ref, blockSide).collect().toSeq
    val assembled = BlockStore.assemble(ref, blocks, blockSide)
    val direct = SciData.generate(ref)
    assert(assembled.data.toSeq == direct.data.toSeq)
  }

  test("every generated block equals the matching slice of the field") {
    for (r <- fields) {
      val grid = SciData.generate(r)
      val blocks = BlockStore.blocksDS(spark, r, blockSide).collect()
      assert(blocks.length == BlockStore.blockGrid(r.dims, blockSide).product)
      blocks.foreach { b =>
        assert(java.util.Arrays.equals(b.values, grid.slice(b.origin.toArray, b.dims.toArray).data),
          s"$r block ${b.blockId}")
      }
    }
  }

  test("shard/assemble round-trip is exact") {
    val grid = SciData.generate(ref)
    val blocks = BlockStore.shard(ref, grid, blockSide)
    val back = BlockStore.assemble(ref, blocks, blockSide)
    assert(back.data.toSeq == grid.data.toSeq)
  }

  test("per-partition compression UDF preserves the error bound end-to-end") {
    val grid = SciData.generate(ref)
    val absEb = Compressor.absoluteBound(grid, 1e-3)
    val blocks = BlockStore.blocksDS(spark, ref, blockSide)
    val comp = CompressorUdf.compressBlocks(blocks, HPEZ(), absEb)
    val decomp = CompressorUdf.decompressBlocks(comp, HPEZ())
    val back = BlockStore.assemble(ref, decomp.collect().toSeq, blockSide)
    val maxErr = Metrics.maxAbsError(grid.data, back.data)
    assert(maxErr <= absEb + 1e-12, s"bound violated through Spark layer: $maxErr > $absEb")
  }

  test("compressed blocks survive a Parquet round-trip") {
    val grid = SciData.generate(ref)
    val absEb = Compressor.absoluteBound(grid, 1e-3)
    val blocks = BlockStore.blocksDS(spark, ref, blockSide)
    val comp = CompressorUdf.compressBlocks(blocks, ZfpLike(), absEb)
    val path = tempPath("blocks")
    CompressorUdf.writeParquet(comp, path)
    val reread = CompressorUdf.readParquet(spark, path)
    val decomp = CompressorUdf.decompressBlocks(reread, ZfpLike())
    val back = BlockStore.assemble(ref, decomp.collect().toSeq, blockSide)
    assert(Metrics.maxAbsError(grid.data, back.data) <= absEb)
  }

  test("readParquet starts no Spark job and returns every column as written") {
    val absEb = Compressor.absoluteBound(SciData.generate(ref), 1e-3)
    val comp = CompressorUdf.compressBlocks(BlockStore.blocksDS(spark, ref, blockSide), HPEZ(), absEb).cache()
    val path = tempPath("blocks")
    CompressorUdf.writeParquet(comp, path)
    val (reread, jobs) = jobsStartedBy(CompressorUdf.readParquet(spark, path))
    assert(jobs == 0, s"readParquet started $jobs Spark job(s)")
    val written = comp.collect().map(cb => cb.blockId -> cb).toMap
    val read = reread.collect()
    comp.unpersist()
    assert(read.map(_.blockId).sorted.toSeq == written.keys.toSeq.sorted)
    read.foreach { cb =>
      val w = written(cb.blockId)
      assert(cb.copy(bytes = null) == w.copy(bytes = null), s"block ${cb.blockId}")
      assert(java.util.Arrays.equals(cb.bytes, w.bytes), s"block ${cb.blockId}: bytes differ")
    }
  }

  test("decompressing a directory without compressed bytes names the block and the column") {
    val absEb = Compressor.absoluteBound(SciData.generate(ref), 1e-3)
    val path = tempPath("no-bytes")
    CompressorUdf.compressBlocks(BlockStore.blocksDS(spark, ref, blockSide), ZfpLike(), absEb)
      .toDF().drop("bytes").write.parquet(path)
    val e = intercept[SparkException] {
      CompressorUdf.decompressBlocks(CompressorUdf.readParquet(spark, path), ZfpLike()).collect()
    }
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case x: IllegalArgumentException => x }
    assert(cause.exists(x => s"${ref.dataset}/${ref.field} blockId \\d+ has a null `bytes`".r
      .findFirstIn(x.getMessage).isDefined), e.toString)
  }

  test("valueRange of a field's blocks equals the field's value range bit for bit") {
    for (r <- fields) {
      val got = BlockStore.valueRange(BlockStore.blocksDS(spark, r, blockSide))
      val want = SciData.generate(r).valueRange
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
        s"$r: $got, expected $want")
    }
  }

  test("SQL UDFs compress/decompress array columns") {
    import spark.implicits._
    CompressorUdf.registerSqlUdfs(spark, ZfpLike())
    val blocks = BlockStore.blocksDS(spark, ref, blockSide)
    blocks.createOrReplaceTempView("blocks")
    val out = spark.sql(
      """SELECT blockId, sci_decompress(sci_compress(values, dims, 0.01d)) AS back, values
        |FROM blocks""".stripMargin)
      .as[(Long, Seq[Double], Seq[Double])]
      .collect()
    assert(out.nonEmpty)
    out.foreach { case (_, back, orig) =>
      assert(back.size == orig.size)
      back.zip(orig).foreach { case (b, o) => assert(math.abs(b - o) <= 0.01) }
    }
  }

  test("qualitySummary aggregation matches the DuckDB oracle") {
    import spark.implicits._
    val grid = SciData.generate(ref)
    val absEb = Compressor.absoluteBound(grid, 1e-3)
    val blocks = BlockStore.blocksDS(spark, ref, blockSide).cache()
    val comp = CompressorUdf.compressBlocks(blocks, ZfpLike(), absEb).cache()
    val decomp = CompressorUdf.decompressBlocks(comp, ZfpLike())

    val summary = CompressorUdf.qualitySummary(blocks, decomp, comp)
      .select($"dataset", $"field", $"points", $"rawBytes", $"compressedBytes")

    // Oracle check: per-block sizes aggregated by DuckDB must agree.
    val perBlock = comp.map(cb => (cb.dataset, cb.field, cb.dims.product.toLong, cb.rawBytes,
        cb.bytes.length.toLong))
      .toDF("dataset", "field", "points", "rawBytes", "compressedBytes")
    Oracle.assertEquivalent(
      summary,
      """SELECT dataset, field, SUM(CAST(points AS BIGINT)) AS points,
        |       SUM(CAST(rawBytes AS BIGINT)) AS rawBytes,
        |       SUM(CAST(compressedBytes AS BIGINT)) AS compressedBytes
        |FROM per_block GROUP BY dataset, field""".stripMargin,
      "per_block" -> perBlock)
  }

  test("qualitySummary reports a NaN max error for a NaN in a decompressed block") {
    import spark.implicits._
    val grid = SciData.generate(ref)
    val absEb = Compressor.absoluteBound(grid, 1e-3)
    val blocks = BlockStore.blocksDS(spark, ref, blockSide).cache()
    val comp = CompressorUdf.compressBlocks(blocks, ZfpLike(), absEb)
    val decomp = CompressorUdf.decompressBlocks(comp, ZfpLike()).map { b =>
      if (b.blockId != 1) b
      else { val v = b.values.clone(); v(v.length / 2) = Double.NaN; b.copy(values = v) }
    }
    val maxErr = CompressorUdf.qualitySummary(blocks, decomp, comp).select($"maxErr").as[Double].collect()
    assert(maxErr.length == 1 && maxErr.head.isNaN, s"maxErr ${maxErr.mkString(", ")}")
  }

  test("block size accounting: sum of block points equals field points") {
    import spark.implicits._
    val blocks = BlockStore.blocksDS(spark, ref, blockSide)
    val total = blocks.map(_.values.length.toLong).reduce(_ + _)
    assert(total == ref.points)

    // and via SQL with oracle
    val df = blocks.map(b => (b.blockId, b.values.length.toLong)).toDF("blockId", "points")
    val agg = df.groupBy().agg(org.apache.spark.sql.functions.sum("points") as "total")
    Oracle.assertEquivalent(agg,
      "SELECT SUM(CAST(points AS BIGINT)) AS total FROM blocks_tbl",
      "blocks_tbl" -> df)
  }

  test("compression ratio summary across codecs via DataFrame union + oracle") {
    import spark.implicits._
    val grid = SciData.generate(ref)
    val absEb = Compressor.absoluteBound(grid, 1e-2)
    val blocks = BlockStore.blocksDS(spark, ref, blockSide).cache()
    val codecs: Seq[Compressor] = Seq(ZfpLike(), HPEZ())
    val all = codecs.map(c => CompressorUdf.compressBlocks(blocks, c, absEb).toDF())
      .reduce(_ union _)
      .select($"codec", $"rawBytes", org.apache.spark.sql.functions.length($"bytes") as "compBytes")
    val summary = all.groupBy("codec")
      .agg(org.apache.spark.sql.functions.sum("rawBytes") as "raw",
        org.apache.spark.sql.functions.sum("compBytes") as "comp")
    Oracle.assertEquivalent(summary,
      """SELECT codec, SUM(CAST(rawBytes AS BIGINT)) AS raw,
        |       SUM(CAST(compBytes AS BIGINT)) AS comp
        |FROM rows_tbl GROUP BY codec""".stripMargin,
      "rows_tbl" -> all)
    // HPEZ must beat ZFP-like in total compressed size at this loose bound
    val byCodec = summary.as[(String, Long, Long)].collect().map(r => r._1 -> r._3).toMap
    assert(byCodec("HPEZ") < byCodec("ZFP 0.5.5"))
  }
}

class TransferSimSpec extends org.scalatest.funsuite.AnyFunSuite {
  import TransferSim._

  test("time model matches hand computation") {
    val m = Measured(rawBytes = 100_000_000L, compressedBytes = 1_000_000L,
      compMBps = 100.0, decompMBps = 400.0)
    val t = timeSeconds(m, p = 2048, linkGBps = 1.0)
    // comp 1s + transfer 2048*1e6/1e9 = 2.048s + decomp 0.25s
    assert(math.abs(t - (1.0 + 2.048 + 0.25)) < 1e-9)
  }

  test("breakdown sums to total") {
    val m = Measured(5_000_000L, 250_000L, 50.0, 150.0)
    val (c, x, d) = breakdown(m, 2048, 0.85)
    assert(math.abs(c + x + d - timeSeconds(m, 2048, 0.85)) < 1e-12)
  }

  test("better compression ratio reduces transfer-dominated time") {
    val a = Measured(100_000_000L, 4_000_000L, 150.0, 500.0)
    val b = Measured(100_000_000L, 2_000_000L, 140.0, 480.0)
    assert(timeSeconds(b, 2048, 1.0) < timeSeconds(a, 2048, 1.0))
  }

  test("faster link shifts the optimum toward faster compressors") {
    val hiRatioSlow = Measured(100_000_000L, 1_000_000L, 30.0, 60.0)
    val loRatioFast = Measured(100_000_000L, 3_000_000L, 200.0, 600.0)
    // slow link: ratio wins; fast link: speed wins
    assert(timeSeconds(hiRatioSlow, 2048, 0.2) < timeSeconds(loRatioFast, 2048, 0.2))
    assert(timeSeconds(loRatioFast, 2048, 10.0) < timeSeconds(hiRatioSlow, 2048, 10.0))
  }
}
