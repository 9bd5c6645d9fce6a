package spadebench

import org.scalatest.funsuite.AnyFunSuite

class QueueModelSpec extends AnyFunSuite {

  test("a burst queues behind the server") {
    val s = QueueModel.schedule(Array(0.0, 0.0, 0.0), Array(1.0, 1.0, 1.0))
    assert(s.start.toSeq == Seq(0.0, 1.0, 2.0))
    assert(s.completion.toSeq == Seq(1.0, 2.0, 3.0))
    assert(s.maxLateness == 2.0)
    assert(s.backlogMax == 3)
    assert(s.utilization() == 1.0)
  }

  test("an idle gap drains the queue") {
    val s = QueueModel.schedule(Array(0.0, 0.0, 10.0), Array(2.0, 2.0, 1.0))
    assert(s.start.toSeq == Seq(0.0, 2.0, 10.0))
    assert(s.completion.toSeq == Seq(2.0, 4.0, 11.0))
    assert(s.lateness(2) == 0.0)
    assert(s.backlogMax == 2)
    assert(s.utilization() == 5.0 / 11.0)
  }

  test("lateness is the wait between arrival and start") {
    val s = QueueModel.schedule(Array(0.0, 1.0, 2.0), Array(3.0, 1.0, 1.0))
    assert((0 until 3).map(s.lateness) == Seq(0.0, 2.0, 2.0))
    assert(s.maxLateness == 2.0)
    // at t=1 job 0 is in service and job 1 arrives; at t=2 jobs 0-2 are all in the system
    assert(s.backlogMax == 3)
  }

  test("a job that completes as the next arrives has left the backlog") {
    val s = QueueModel.schedule(Array(0.0, 1.0, 2.0), Array(1.0, 1.0, 1.0))
    assert(s.maxLateness == 0.0)
    assert(s.backlogMax == 1)
  }

  test("utilization over separate bursts leaves out the gap between them") {
    val s = QueueModel.schedule(Array(0.0, 1.0, 100.0, 101.0), Array(2.0, 1.0, 1.0, 1.0))
    assert(s.utilization() == 5.0 / 102.0)
    assert(s.utilization(Seq((0, 2), (2, 4))) == 5.0 / (3.0 + 2.0))
  }

  test("arrivals must be in order") {
    assertThrows[IllegalArgumentException](QueueModel.schedule(Array(1.0, 0.0), Array(1.0, 1.0)))
  }
}
