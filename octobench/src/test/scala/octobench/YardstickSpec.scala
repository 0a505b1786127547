package octobench

import org.scalatest.funsuite.AnyFunSuite

class YardstickSpec extends AnyFunSuite {

  test("every yardstick of a size does the same work") {
    val a = new Yardstick(Yardstick.small)
    val b = new Yardstick(Yardstick.small)
    assert(a.reach == b.reach && a.reach > 0)
    assert(a.ms() > 0.0)
    assert(new Yardstick(Yardstick.large).reach != a.reach)
  }

  test("window median clips the window to the runs there are") {
    val xs = IndexedSeq(5.0, 1.0, 3.0, 9.0)
    assert(Yardstick.windowMedian(xs, -2, 2) == 3.0)
    assert(Yardstick.windowMedian(xs, 1, 10) == 3.0)
    assert(Yardstick.windowMedian(xs, 3, 4) == 9.0)
  }
}
