package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** How `Runner.modisReports` picks the dataset it reports for a variant,
  * on the closed-form [[SyntheticSpace]].
  */
class RunnerSpec extends AnyFunSuite {

  private val space = new SyntheticSpace()
  // no attribute kept: inadmissible, so its exact evaluation is None
  private val noAttrs = State(space.full.bits -- space.layout.attrs.indices, space.layout.width)
  private val noAttrsNoSeg1 = noAttrs.clear(space.layout.clusterIdx("seg", 1))

  private def winner(name: String, skyline: Vector[(State, Array[Double])]) =
    Runner.usableWinner(name, ModisResult(skyline, valuated = skyline.size, explored = skyline.size),
      new ExactValuator(space), primaryIdx = 0)

  test("an unusable winner falls back to a usable skyline entry") {
    val r = winner("ApxMODis", Vector(noAttrs -> Array(0.1, 0.9), space.full -> Array(0.5, 0.5)))
    assert(r.rows == 100 && r.cols == space.layout.attrs.size)
  }

  test("a skyline without a usable entry fails naming the variant") {
    val e = intercept[IllegalStateException](
      winner("BiMODis", Vector(noAttrs -> Array(0.1, 0.9), noAttrsNoSeg1 -> Array(0.2, 0.8))))
    assert(e.getMessage.contains("BiMODis"))
  }

  test("an empty skyline fails naming the variant") {
    val e = intercept[IllegalStateException](winner("DivMODis", Vector.empty))
    assert(e.getMessage.contains("DivMODis"))
  }
}
