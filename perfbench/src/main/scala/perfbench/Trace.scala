package perfbench

import java.io.{File, PrintWriter}
import repro.core.{BitLayout, EvalResult, Measure, State, StateSpace, Valuator}
import scala.collection.mutable

/** One timed call at a layer boundary. `parent` is -1 for a root span (one
  * variant's `run`); every span of a traced pass carries that pass's id.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, pass: Int) {
  def nanos: Long = end - start
}

/** An exact evaluation seen at the `StateSpace.evaluate` boundary. `fresh`
  * is false when the space answered from its own memo.
  */
final case class EvalCall(pass: Int, state: State, result: Option[EvalResult], fresh: Boolean)

/** In-memory span recorder for the benchmark's single caller thread.
  *
  * Spans are kept only while a root span is open, so the calls the benchmark
  * makes itself (winner valuation, collect replay) stay out of the layer
  * totals. The recorder also classifies each `valuate` by what ran beneath
  * it: exact if `evaluate` ran on the state, estimated if `features` did,
  * a memo hit if no space call ran at all, rejected otherwise.
  */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  val evals = mutable.ArrayBuffer.empty[EvalCall]
  /** (pass, outcome) -> count, outcome in exact / estimated / memo_hit / rejected. */
  val outcomes = mutable.Map.empty[(Int, String), Int].withDefaultValue(0)
  var pass = 0

  private var nextId = 0
  private var stack: List[Int] = Nil

  private var subject: State = _
  private var subjectEvaluated, subjectFeatured, anyChild = false

  def active: Boolean = stack.nonEmpty

  def root[A](name: String)(f: => A): A = {
    require(stack.isEmpty, s"root span $name opened inside another span")
    open(name, f)
  }

  def span[A](name: String)(f: => A): A = if (stack.isEmpty) f else open(name, f)

  private def open[A](name: String, f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      spans += Span(id, name, t0, t1, parent, pass)
    }
  }

  /** A space call made on `s`; `evaluate` / `features` name the boundary. */
  def spaceCall(kind: String, s: State): Unit = if (subject != null) {
    anyChild = true
    if (s == subject) kind match {
      case "evaluate" => subjectEvaluated = true
      case "features" => subjectFeatured = true
      case _          =>
    }
  }

  def valuate[A](s: State)(f: => A): A = {
    if (!active) return f
    subject = s
    subjectEvaluated = false; subjectFeatured = false; anyChild = false
    try span("valuator.valuate")(f)
    finally {
      val outcome =
        if (subjectEvaluated) "exact"
        else if (subjectFeatured) "estimated"
        else if (!anyChild) "memo_hit"
        else "rejected"
      outcomes((pass, outcome)) += 1
      subject = null
    }
  }

  /** Writes every span as one tab-separated line. */
  def writeSpans(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file)
    try {
      w.println("id\tname\tstart_ns\tend_ns\tparent\tpass")
      spans.sortBy(_.id).foreach(s =>
        w.println(s"${s.id}\t${s.name}\t${s.start}\t${s.end}\t${s.parent}\t${s.pass}"))
    } finally w.close()
  }
}

/** `StateSpace` decorator that records a span around every public call the
  * search makes and remembers each exact evaluation it forwards.
  */
final class TracedSpace(inner: StateSpace, tr: Tracer) extends StateSpace {
  // States the inner space already evaluated inside `backStart`: a later
  // `evaluate` of one of them is answered from the inner memo.
  private val seen = mutable.Set.empty[State]

  override def layout: BitLayout = inner.layout
  override def full: State = inner.full
  override def measures: Vector[Measure] = inner.measures
  override def admissible(s: State): Boolean = {
    tr.spaceCall("admissible", s)
    inner.admissible(s)
  }

  override def backStart: State = tr.span("space.backstart") {
    val s = inner.backStart
    seen += s
    s
  }

  override def neighborsReduct(s: State): Seq[State] =
    tr.span("space.neighbors")(inner.neighborsReduct(s))

  override def neighborsAugment(s: State): Seq[State] =
    tr.span("space.neighbors")(inner.neighborsAugment(s))

  override def evaluate(s: State): Option[EvalResult] = {
    tr.spaceCall("evaluate", s)
    val r = tr.span("space.evaluate")(inner.evaluate(s))
    if (tr.active) tr.evals += EvalCall(tr.pass, s, r, fresh = seen.add(s))
    r
  }

  override def rowCountEstimate(s: State): Long = {
    tr.spaceCall("rowcount", s)
    tr.span("space.rowcount")(inner.rowCountEstimate(s))
  }

  override def features(s: State): Array[Double] = {
    tr.spaceCall("features", s)
    tr.span("space.features")(inner.features(s))
  }
}

/** `Valuator` decorator: one span per `valuate`, classified by the tracer. */
final class TracedValuator(inner: Valuator, tr: Tracer) extends Valuator {
  override def valuate(s: State): Option[Array[Double]] = tr.valuate(s)(inner.valuate(s))
  override def exact(s: State): Option[EvalResult] = inner.exact(s)
  override def count: Int = inner.count
  override def records: Vector[(State, Array[Double])] = inner.records
}
