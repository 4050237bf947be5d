package repro.sparklayer

import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Compressor, GridData, Metrics}

/** Per-partition compression/decompression over block DataFrames, plus
  * Parquet persistence of the compressed binary column and DataFrame
  * quality aggregation — the Spark integration layer of this
  * reproduction (DESIGN.md §5).
  */
object CompressorUdf {

  /** Compresses every block with `compressor` under the absolute bound.
    * Runs as a Dataset map, i.e. a narrow per-partition transformation.
    */
  def compressBlocks(blocks: Dataset[Block], compressor: Compressor,
                     absEb: Double): Dataset[CompressedBlock] = {
    val spark = blocks.sparkSession
    import spark.implicits._
    val name = compressor.name
    blocks.map { b =>
      val grid = new GridData(b.dims.toArray, b.values)
      val bytes = compressor.compress(grid, absEb)
      CompressedBlock(b.dataset, b.field, b.blockId, b.origin, b.dims, name,
        absEb, b.values.length.toLong * 4, bytes)
    }
  }

  /** Inverse of [[compressBlocks]]. A block whose `bytes` or `dims` is
    * null (read from a directory that lacks the column) fails with an
    * `IllegalArgumentException` naming the block and the column.
    */
  def decompressBlocks(blocks: Dataset[CompressedBlock], compressor: Compressor): Dataset[Block] = {
    val spark = blocks.sparkSession
    import spark.implicits._
    blocks.map { cb =>
      def missing(column: String) = new IllegalArgumentException(s"compressed block " +
        s"${cb.dataset}/${cb.field} blockId ${cb.blockId} has a null `$column`: the input has no `$column` column")
      if (cb.bytes == null) throw missing("bytes")
      if (cb.dims == null) throw missing("dims")
      val grid = compressor.decompress(cb.bytes)
      Block(cb.dataset, cb.field, cb.blockId, cb.origin, cb.dims, grid.data)
    }
  }

  /** Writes compressed blocks as Parquet (binary column + metadata). */
  def writeParquet(blocks: Dataset[CompressedBlock], path: String): Unit =
    blocks.toDF().write.mode("overwrite").parquet(path)

  /** Reads compressed blocks back from Parquet. The read declares the
    * [[CompressedBlock]] schema that [[writeParquet]] writes, so Spark
    * runs no job to infer it from the file footers.
    */
  def readParquet(spark: SparkSession, path: String): Dataset[CompressedBlock] = {
    val encoder = Encoders.product[CompressedBlock]
    spark.read.schema(encoder.schema).parquet(path).as(encoder)
  }

  /** Registers SQL-callable UDFs `sci_compress(values, dims, eb)` and
    * `sci_decompress(bytes)` for the given compressor, so compression can
    * be expressed in Spark SQL over array columns.
    */
  def registerSqlUdfs(spark: SparkSession, compressor: Compressor): Unit = {
    spark.udf.register("sci_compress",
      (values: Seq[Double], dims: Seq[Int], eb: Double) =>
        compressor.compress(new GridData(dims.toArray, values.toArray), eb))
    spark.udf.register("sci_decompress",
      (bytes: Array[Byte]) => compressor.decompress(bytes).data.toSeq)
  }

  /** Per-(dataset, field) quality/size summary computed as a DataFrame
    * aggregation joining decompressed blocks against the originals:
    * compressed size, raw size, max point-wise error (NaN when either
    * side holds a NaN) and MSE.
    */
  def qualitySummary(orig: Dataset[Block], decomp: Dataset[Block],
                     compressed: Dataset[CompressedBlock]): DataFrame = {
    val spark = orig.sparkSession
    import spark.implicits._
    val err = orig.joinWith(decomp,
        orig("dataset") === decomp("dataset") && orig("field") === decomp("field") &&
        orig("blockId") === decomp("blockId"))
      .map { case (a, b) =>
        var sumSq = 0.0
        var i = 0
        while (i < a.values.length) {
          val d = a.values(i) - b.values(i)
          sumSq += d * d
          i += 1
        }
        (a.dataset, a.field, a.values.length.toLong, Metrics.maxAbsError(a.values, b.values), sumSq)
      }
      .toDF("dataset", "field", "points", "maxErr", "sumSq")
      .groupBy("dataset", "field")
      .agg(sum("points") as "points", max("maxErr") as "maxErr",
        (sum("sumSq") / sum("points")) as "mse")
    val sizes = compressed.toDF()
      .groupBy("dataset", "field")
      .agg(sum("rawBytes") as "rawBytes", sum(length(col("bytes"))) as "compressedBytes")
    err.join(sizes, Seq("dataset", "field"))
      .withColumn("compressionRatio", col("rawBytes") / col("compressedBytes"))
  }
}
