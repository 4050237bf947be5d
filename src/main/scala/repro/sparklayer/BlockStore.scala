package repro.sparklayer

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.GridData
import repro.data.SciData
import repro.data.SciData.FieldRef

/** A shard of a scientific field: scientific arrays are stored in Spark as
  * DataFrames of block rows with an `array<double>` values column — the
  * layout the per-partition compression UDFs operate on (repro hint:
  * "per-partition compression/decompression UDF applied to scientific
  * array columns stored in Parquet").
  */
final case class Block(dataset: String, field: String, blockId: Long,
                       origin: Seq[Int], dims: Seq[Int], values: Array[Double])

/** Block-compressed counterpart of [[Block]]. */
final case class CompressedBlock(dataset: String, field: String, blockId: Long,
                                 origin: Seq[Int], dims: Seq[Int], codec: String,
                                 absEb: Double, rawBytes: Long, bytes: Array[Byte])

/** Shards n-D fields into fixed-side blocks and back. Block generation is
  * distributed: each Spark partition evaluates the deterministic
  * [[SciData.box]] for its block range, so no driver-side
  * materialization is needed.
  */
object BlockStore {

  /** Default block side: 64³ blocks ≈ 1 MB fp32 shards. */
  val DefaultBlockSide = 64

  /** Number of blocks per dimension for a field. */
  def blockGrid(dims: Array[Int], side: Int): Array[Int] =
    dims.map(d => (d + side - 1) / side)

  /** Origin/extent of block `blockId` in the block raster order. */
  def blockBox(dims: Array[Int], side: Int, blockId: Long): (Array[Int], Array[Int]) = {
    val bg = blockGrid(dims, side)
    val nd = dims.length
    val origin = new Array[Int](nd)
    var rem = blockId
    var k = nd - 1
    while (k >= 0) { origin(k) = (rem % bg(k)).toInt * side; rem /= bg(k); k -= 1 }
    val ext = Array.tabulate(nd)(k => math.min(side, dims(k) - origin(k)))
    (origin, ext)
  }

  /** Distributed block DataFrame of a synthetic field. */
  def blocksDS(spark: SparkSession, ref: FieldRef, side: Int = DefaultBlockSide): Dataset[Block] = {
    import spark.implicits._
    val nBlocks = blockGrid(ref.dims, side).map(_.toLong).product
    val dimsSeq = ref.dims.toSeq
    val (ds, fld) = (ref.dataset, ref.field)
    spark.range(nBlocks).map { bid =>
      val refLocal = FieldRef(ds, fld, dimsSeq.toArray, SciData.intDatasets.contains(ds))
      val (origin, ext) = blockBox(refLocal.dims, side, bid)
      Block(ds, fld, bid, origin.toSeq, ext.toSeq, SciData.box(refLocal, origin, ext))
    }
  }

  /** Value range (max − min) of the field the blocks shard, from one
    * aggregation over each block's [[GridData.minMax]], so NaN is ignored
    * exactly as `minMax` ignores it.
    */
  def valueRange(blocks: Dataset[Block]): Double = {
    val spark = blocks.sparkSession
    import spark.implicits._
    val (mn, mx) = blocks.map(b => new GridData(b.dims.toArray, b.values).minMax)
      .reduce((a, b) => (math.min(a._1, b._1), math.max(a._2, b._2)))
    mx - mn
  }

  /** Driver-side reassembly of a full field from its blocks. */
  def assemble(ref: FieldRef, blocks: Seq[Block], side: Int = DefaultBlockSide): GridData = {
    val grid = new GridData(ref.dims.clone(), new Array[Double](ref.points.toInt))
    blocks.foreach { b =>
      val sub = new GridData(b.dims.toArray, b.values)
      grid.paste(b.origin.toArray, sub)
    }
    grid
  }

  /** Splits a driver-side grid into block rows (for tests / oracles). */
  def shard(ref: FieldRef, grid: GridData, side: Int = DefaultBlockSide): Seq[Block] = {
    val nBlocks = blockGrid(grid.dims, side).map(_.toLong).product
    (0L until nBlocks).map { bid =>
      val (origin, ext) = blockBox(grid.dims, side, bid)
      Block(ref.dataset, ref.field, bid, origin.toSeq, ext.toSeq, grid.slice(origin, ext).data)
    }
  }
}
