package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Compressor
import repro.data.SciData
import repro.eval.Eval
import repro.sparklayer.{BlockStore, CompressorUdf, TransferSim}

/** spark-submit entrypoint for the paper's §7.2.4 experiment: parallel
  * compression of a dataset's blocks on the cluster, followed by the
  * inter-machine transfer-time model (Table 5 / Fig. 14).
  *
  * Usage: TransferSimJob [dataset] [eps] [cores] [linkGBps]
  */
object TransferSimJob {
  def main(args: Array[String]): Unit = {
    val dataset = if (args.length > 0) args(0) else "Miranda"
    val eps = if (args.length > 1) args(1).toDouble else 1e-3
    val p = if (args.length > 2) args(2).toInt else 2048
    val link = if (args.length > 3) args(3).toDouble else 1.0

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"TransferSim-$dataset").getOrCreate()
    try {
      println(f"${"codec"}%-10s ${"CR"}%8s ${"comp MB/s"}%10s ${"dcmp MB/s"}%10s ${"T model (s)"}%12s")
      for (codecName <- Eval.CompressorNames) {
        val codec = Eval.compressor(codecName)
        var raw = 0L
        var comp = 0L
        var compSecs = 0.0
        var decompSecs = 0.0
        for (ref <- SciData.fields(dataset)) {
          val grid = SciData.generate(ref)
          val absEb = Compressor.absoluteBound(grid, eps)
          val blocks = BlockStore.blocksDS(spark, ref).cache()
          blocks.count() // materialize before timing
          var t0 = System.nanoTime()
          val compressed = CompressorUdf.compressBlocks(blocks, codec, absEb).cache()
          val bytes = compressed.toDF().agg(
            org.apache.spark.sql.functions.sum(
              org.apache.spark.sql.functions.length(
                org.apache.spark.sql.functions.col("bytes")))).head().getLong(0)
          compSecs += (System.nanoTime() - t0) / 1e9
          t0 = System.nanoTime()
          CompressorUdf.decompressBlocks(compressed, codec).foreach(_ => ())
          decompSecs += (System.nanoTime() - t0) / 1e9
          raw += ref.rawBytes
          comp += bytes
        }
        val m = TransferSim.Measured(raw, comp, raw / 1e6 / compSecs, raw / 1e6 / decompSecs)
        val t = TransferSim.timeSeconds(m, p, link)
        println(f"$codecName%-10s ${raw.toDouble / comp}%8.1f ${m.compMBps}%10.1f ${m.decompMBps}%10.1f $t%12.2f")
      }
    } finally spark.stop()
  }
}
