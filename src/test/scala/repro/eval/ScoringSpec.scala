package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class ScoringSpec extends AnyFunSuite {
  import Scoring._

  test("±0% tolerance means exact match") {
    assert(matches(100, 100, 0.0))
    assert(!matches(101, 100, 0.0))
  }

  test("±2% tolerance allows 98..102 for T=100 but only 20 for T=20") {
    assert(matches(98, 100, 0.02) && matches(102, 100, 0.02))
    assert(!matches(97, 100, 0.02))
    assert(!matches(21, 20, 0.02)) // 2% of 20 = 0.4 < 1
    assert(matches(20, 20, 0.02))
  }

  test("perfect detection: tp=all, fp=fn=0") {
    val c = score(Seq(20, 50, 100), Seq(20, 50, 100), 0.0)
    assert(c == Counts(3, 0, 0))
  }

  test("partial detection counts fn; spurious counts fp") {
    val c = score(Seq(20, 37), Seq(20, 50, 100), 0.0)
    assert(c == Counts(1, 1, 2))
  }

  test("1-1 matching: one detection cannot satisfy two truths") {
    val c = score(Seq(100), Seq(100, 100), 0.0)
    assert(c.tp == 1 && c.fn == 1)
  }

  test("duplicate detections near one truth: one tp, rest fp") {
    val c = score(Seq(100, 100), Seq(100), 0.0)
    assert(c.tp == 1 && c.fp == 1)
  }

  test("empty detection on periodic truth: all fn") {
    assert(score(Seq.empty, Seq(20, 50), 0.0) == Counts(0, 0, 2))
  }

  test("prf math") {
    val m = prf(Counts(6, 2, 3))
    assert(math.abs(m.precision - 0.75) < 1e-12)
    assert(math.abs(m.recall - 6.0 / 9) < 1e-12)
    assert(math.abs(m.f1 - 2 * 0.75 * (6.0 / 9) / (0.75 + 6.0 / 9)) < 1e-12)
  }

  test("prf of zero counts is zero, not NaN") {
    val m = prf(Counts(0, 0, 0))
    assert(m.precision == 0.0 && m.recall == 0.0 && m.f1 == 0.0)
  }

  test("aggregate micro-averages counts") {
    val m = aggregate(Seq(Counts(1, 0, 1), Counts(2, 1, 0)))
    assert(math.abs(m.precision - 3.0 / 4) < 1e-12)
    assert(math.abs(m.recall - 3.0 / 4) < 1e-12)
  }

  test("topOneCorrect looks only at the first ranked detection") {
    assert(topOneCorrect(Seq(100, 7), 100, 0.0))
    assert(!topOneCorrect(Seq(7, 100), 100, 0.0))
    assert(!topOneCorrect(Seq.empty, 100, 0.0))
  }
}
