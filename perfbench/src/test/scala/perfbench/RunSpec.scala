package perfbench

import java.io.File
import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.core.{ByteReader, ByteWriter, Compressor, GridData}

/** Stores grids verbatim, and throws on grids whose first extent is
  * `failDim0` (the CESM fields and their blocks when it is 26).
  */
final class ThrowingCodec(failDim0: Int) extends Compressor {
  override def name: String = "throwing"
  override def compress(grid: GridData, absEb: Double): Array[Byte] = {
    if (grid.dims(0) == failDim0) throw new IllegalStateException("deliberate failure")
    val w = new ByteWriter()
    w.writeIntArray(grid.dims)
    w.writeDoubleArray(grid.data)
    w.toBytes
  }
  override def decompress(bytes: Array[Byte]): GridData = {
    val r = new ByteReader(bytes)
    new GridData(r.readIntArray(), r.readDoubleArray())
  }
}

class RunSpec extends AnyFunSuite {
  private val json = new ObjectMapper()
  private val contract = json.readTree(new File("../BENCHMARK.json"))
  private def names(section: String): Set[String] =
    contract.get(section).elements().asScala.map(_.get("name").asText).toSet
  private def workload(name: String) = Main.Workloads.find(_.name == name).get
  private val work = new File("target/test-work")

  private def run(name: String, trace: Boolean): JsonNode =
    json.readTree(Main.run(workload(name), seed = 0, seconds = 0.1, trace, work, new ThrowingCodec(26)))

  private def checkFailuresCounted(result: JsonNode, metrics: Set[String]): Unit = {
    val attempted = result.get("attempted").asInt
    val failed = result.get("failed").asInt
    assert(!result.get("correct").asBoolean)
    // The 2 CESM fields of every 12 fail in the warm-up pass and in every
    // timed pass.
    assert(attempted >= 24 && attempted % 12 == 0 && failed == attempted / 6, s"$failed of $attempted")
    assert(result.get("metrics").fieldNames().asScala.toSet == metrics)
  }

  test("the sequential path counts failures and still reports every metric") {
    val r = run("seq", trace = false)
    checkFailuresCounted(r, names("end_to_end"))
    assert(r.get("metrics").get("ok_frac").get("value").asDouble == 1.0 - 1.0 / 6)
  }

  test("the Spark path counts failures and still reports every metric") {
    checkFailuresCounted(run("spark-blocks", trace = false), names("end_to_end"))
  }

  test("a traced run reports every per-layer metric and fails when the replay differs") {
    // The plain passes use the verbatim codec, so the staged HPEZ replay
    // cannot reproduce their streams.
    val r = run("seq", trace = true)
    assert(r.get("metrics").fieldNames().asScala.toSet == names("per_layer"))
    assert(!r.get("correct").asBoolean)
  }

  test("BENCHMARK.json lists the workloads Main runs") {
    assert(contract.get("workloads").elements().asScala.map(_.get("name").asText).toSeq ==
      Main.Workloads.map(_.name))
  }
}
