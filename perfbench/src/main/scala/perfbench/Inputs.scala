package perfbench

import java.util.concurrent.Executors
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import repro.core.{Compressor, GridData}
import repro.data.SciData
import repro.data.SciData.FieldRef

/** A generated field with its absolute error bound. */
final case class Field(ref: FieldRef, grid: GridData, absEb: Double) {
  def rawBytes: Long = ref.rawBytes
}

object Inputs {

  /** The 12 float fields of the six float datasets. Seed 0 keeps the
    * canonical names; any other seed renames every field, which reseeds
    * SciData's phases, so `SciData.valueAt` and `BlockStore.blocksDS`
    * produce a variant of the same dataset character unchanged.
    */
  def refs(seed: Long): Seq[FieldRef] =
    SciData.allFloatFields().map(r => if (seed == 0) r else r.copy(field = s"${r.field}~$seed"))

  /** Generates `refs` on `threads` threads and returns every field once per
    * value-range bound in `epsilons`, with its absolute bound.
    */
  def generate(refs: Seq[FieldRef], epsilons: Seq[Double], threads: Int): Seq[Field] = {
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      val grids = Await.result(Future.traverse(refs)(r => Future(SciData.generate(r))), Duration.Inf)
      for (eps <- epsilons; (r, g) <- refs.zip(grids)) yield Field(r, g, Compressor.absoluteBound(g, eps))
    } finally pool.shutdown()
  }
}
