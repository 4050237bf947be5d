package perfbench

import java.io.File
import scala.util.control.NonFatal
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Compressor, GridData, Metrics}
import repro.data.SciData.FieldRef
import repro.sparklayer.{Block, BlockStore, CompressorUdf}

/** One round trip of one field: compress, then decompress, then verify.
  * Times are wall nanoseconds; `calNs` holds the calibration samples taken
  * just before each of the two operations. `streams` holds the compressed
  * bytes (one per block on the Spark path, where they are kept only on
  * request) and `recon` the decompressed field, when the pass was asked to
  * keep it.
  */
final case class Trip(rawBytes: Long, compNs: Long, decompNs: Long, calNs: Seq[Long], ok: Boolean,
                      psnr: Double, parquetBytes: Long, streams: Seq[Array[Byte]], recon: Option[GridData])

object Trip {
  def failed(f: Field, what: String): Trip = {
    Console.err.println(s"[perfbench] FAILED ${f.ref}: $what")
    Trip(f.rawBytes, 0, 0, Nil, ok = false, 0, 0, Nil, None)
  }
}

/** One pass: a round trip of every field, one field at a time. */
final case class Pass(trips: Seq[Trip]) {
  def ok: Seq[Trip] = trips.filter(_.ok)
  def compNs: Long = ok.map(_.compNs).sum
  def decompNs: Long = ok.map(_.decompNs).sum
  def rawMB: Double = ok.map(_.rawBytes).sum / 1e6

  /** Converts this pass's wall times to reference time, by the median of
    * its calibration samples.
    */
  def scale: Double = {
    val cal = trips.flatMap(_.calNs).map(_.toDouble)
    if (cal.isEmpty) 1.0 else Calibration.NominalNs / Stats.median(cal)
  }
  def compMBps: Double = rawMB / (compNs * scale / 1e9)
  def decompMBps: Double = rawMB / (decompNs * scale / 1e9)
  def tripCompMBps: Seq[Double] = ok.map(t => t.rawBytes / 1e6 / (t.compNs * scale / 1e9))
  def tripDecompMBps: Seq[Double] = ok.map(t => t.rawBytes / 1e6 / (t.decompNs * scale / 1e9))
}

/** Runs closed-loop passes over generated fields with a given codec. */
trait Runner {
  def fields: Seq[Field]
  /** One pass with `codec`; `keep` keeps streams and reconstructions. */
  def pass(codec: Compressor, keep: Boolean): Pass
  /** `codec` wrapped so that its calls, times and output bytes add to `c`. */
  def instrument(codec: Compressor, c: StageCounters): Compressor = new TimedCompressor(codec, c)
  def close(): Unit = ()
}

/** Sequential path: the codec runs on the calling thread. */
final class SeqRunner(val fields: Seq[Field]) extends Runner {

  override def pass(codec: Compressor, keep: Boolean): Pass = Pass(fields.map { f =>
    try {
      val c0 = Calibration.sampleNs(1)
      val t0 = System.nanoTime()
      val bytes = codec.compress(f.grid, f.absEb)
      val t1 = System.nanoTime()
      val c1 = Calibration.sampleNs(1)
      val t2 = System.nanoTime()
      val recon = codec.decompress(bytes)
      val t3 = System.nanoTime()
      Verify.check(f.grid, recon, f.absEb) match {
        case Some(why) => Trip.failed(f, why)
        case None =>
          Trip(f.rawBytes, t1 - t0, t3 - t2, Seq(c0, c1), ok = true, Metrics.psnr(f.grid, recon), 0,
            if (keep) Seq(bytes) else Nil, if (keep) Some(recon) else None)
      }
    } catch { case NonFatal(e) => Trip.failed(f, e.toString) }
  })
}

/** Spark path: each field's cached blocks go through
  * `compressBlocks` → `writeParquet` → `readParquet` → `decompressBlocks`,
  * one field's jobs at a time.
  */
final class SparkRunner(spark: SparkSession, val fields: Seq[Field], blocks: Seq[Dataset[Block]],
                        dir: File, side: Int, slots: Int) extends Runner {

  override def pass(codec: Compressor, keep: Boolean): Pass = Pass(fields.indices.map { i =>
    val f = fields(i)
    val path = new File(dir, s"field-$i").getPath
    try {
      val c0 = Calibration.sampleNs(slots)
      val t0 = System.nanoTime()
      CompressorUdf.writeParquet(CompressorUdf.compressBlocks(blocks(i), codec, f.absEb), path)
      val t1 = System.nanoTime()
      val c1 = Calibration.sampleNs(slots)
      val t2 = System.nanoTime()
      val out = CompressorUdf.decompressBlocks(CompressorUdf.readParquet(spark, path), codec).collect()
      val t3 = System.nanoTime()
      reassemble(f, out) match {
        case Left(why) => Trip.failed(f, why)
        case Right(recon) =>
          val streams =
            if (keep) CompressorUdf.readParquet(spark, path).collect().sortBy(_.blockId).map(_.bytes).toSeq
            else Nil
          Trip(f.rawBytes, t1 - t0, t3 - t2, Seq(c0, c1), ok = true, Metrics.psnr(f.grid, recon),
            SparkRunner.parquetBytes(path), streams, if (keep) Some(recon) else None)
      }
    } catch { case NonFatal(e) => Trip.failed(f, e.toString) }
  })

  /** The field reassembled from `out`, or why it fails verification.
    * Every block must be present once with its original extent, so the
    * reassembled field covers each point exactly once.
    */
  private def reassemble(f: Field, out: Array[Block]): Either[String, GridData] = {
    val expected = BlockStore.blockGrid(f.ref.dims, side).map(_.toLong).product
    val ids = out.map(_.blockId).distinct
    if (out.length != expected || ids.length != expected || ids.exists(id => id < 0 || id >= expected))
      return Left(s"${out.length} blocks returned, $expected expected")
    out.find(b => b.dims != BlockStore.blockBox(f.ref.dims, side, b.blockId)._2.toSeq ||
        b.dims.product != b.values.length) match {
      case Some(b) => Left(s"block ${b.blockId}: dims ${b.dims.mkString("x")} with ${b.values.length} values")
      case None =>
        val recon = BlockStore.assemble(f.ref, out.toSeq, side)
        Verify.check(f.grid, recon, f.absEb).toLeft(recon)
    }
  }

  override def instrument(codec: Compressor, c: StageCounters): Compressor = {
    spark.sparkContext.register(c)
    new TimedCompressor(codec, c)
  }

  override def close(): Unit = spark.stop()
}

object SparkRunner {

  /** Starts a local Spark session whose scratch space is under `dir`. */
  def session(slots: Int, dir: File): SparkSession =
    SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(dir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(dir, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", slots.toString)
      .getOrCreate()

  /** Generates and caches every field's blocks with `BlockStore.blocksDS`,
    * filling all caches in one job.
    */
  def cacheBlocks(spark: SparkSession, refs: Seq[FieldRef], side: Int): Seq[Dataset[Block]] = {
    val blocks = refs.map(r => BlockStore.blocksDS(spark, r, side).cache())
    blocks.reduce(_ union _).count()
    blocks
  }

  def parquetBytes(path: String): Long =
    Option(new File(path).listFiles()).toSeq.flatten.filter(_.getName.endsWith(".parquet")).map(_.length).sum
}
