package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Compressor
import repro.data.SciData
import repro.eval.Eval
import repro.sparklayer.{BlockStore, CompressorUdf}

/** spark-submit entrypoint: distributed block compression of a synthetic
  * scientific dataset with any of the seven compressors, Parquet
  * persistence of the compressed binary column, and a quality summary
  * (CR / max error / MSE) computed as a DataFrame aggregation.
  *
  * Usage: CompressJob [dataset] [codec] [eps] [outputDir]
  *   e.g. CompressJob Miranda HPEZ 1e-3 /tmp/hpez-miranda
  */
object CompressJob {
  def main(args: Array[String]): Unit = {
    val dataset = if (args.length > 0) args(0) else "Miranda"
    val codecName = if (args.length > 1) args(1) else "HPEZ"
    val eps = if (args.length > 2) args(2).toDouble else 1e-3
    val out = if (args.length > 3) args(3) else s"/tmp/repro-${dataset}-${eps}"

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"CompressJob-$dataset").getOrCreate()
    try {
      val codec = Eval.compressor(codecName)
      for (ref <- SciData.fields(dataset)) {
        val blocks = BlockStore.blocksDS(spark, ref).cache()
        val absEb = Compressor.absoluteBound(BlockStore.valueRange(blocks), eps)
        val compressed = CompressorUdf.compressBlocks(blocks, codec, absEb).cache()
        CompressorUdf.writeParquet(compressed, s"$out/${ref.field}")
        val decompressed = CompressorUdf.decompressBlocks(
          CompressorUdf.readParquet(spark, s"$out/${ref.field}"), codec)
        val summary = CompressorUdf.qualitySummary(blocks, decompressed, compressed)
        println(s"== $ref codec=$codecName eps=$eps absEb=$absEb")
        summary.show(truncate = false)
        compressed.unpersist()
        blocks.unpersist()
      }
    } finally spark.stop()
  }
}
