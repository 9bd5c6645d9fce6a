package spadebench

/** Open-loop replay of a closed-loop service trace on a virtual clock.
  *
  * The benchmark loop hands Spade one job at a time (an increment, a delete, a
  * micro-batch) and records how long Spade was busy with it. Here each job
  * instead arrives at its generator timestamp and is served by a single
  * server in order: `start = max(arrival, previous completion)`. This is
  * exact for Spade because none of its flush decisions read the wall clock:
  * batches close on a count and grouping flushes on urgency, so the calls
  * made, and their cost, do not depend on when a job arrives.
  *
  * All times are in the same unit (virtual seconds in the benchmark).
  */
object QueueModel {

  final case class Schedule(arrival: Array[Double], start: Array[Double], completion: Array[Double]) {
    def jobs: Int = arrival.length

    /** How late the clock ran for job `i`: its wait before service began. */
    def lateness(i: Int): Double = start(i) - arrival(i)

    def maxLateness: Double = (0 until jobs).foldLeft(0.0)((m, i) => math.max(m, lateness(i)))

    /** Most jobs ever in the system (waiting or in service) at an arrival,
      * the arriving job included. Completions are non-decreasing, so one
      * pointer sweeps past every job finished by the current arrival.
      */
    def backlogMax: Int = {
      var oldest = 0
      var best = 0
      var i = 0
      while (i < jobs) {
        while (oldest < i && completion(oldest) <= arrival(i)) oldest += 1
        best = math.max(best, i - oldest + 1)
        i += 1
      }
      best
    }

    /** Share of the time from first arrival to last completion during
      * which the server was busy, summed over `segments` of jobs
      * `[from, until)`: separate bursts leave the long idle gaps between
      * them out.
      */
    def utilization(segments: Seq[(Int, Int)] = Seq((0, jobs))): Double = {
      val parts = segments.filter { case (from, until) => until > from }
      val busy = parts.map { case (from, until) => (from until until).map(i => completion(i) - start(i)).sum }.sum
      val span = parts.map { case (from, until) => completion(until - 1) - arrival(from) }.sum
      if (span > 0) busy / span else 0.0
    }
  }

  /** Serve jobs in order; `arrival` must be non-decreasing and `service`
    * non-negative.
    */
  def schedule(arrival: Array[Double], service: Array[Double]): Schedule = {
    require(arrival.length == service.length, "one service time per arrival")
    val n = arrival.length
    val start = new Array[Double](n)
    val completion = new Array[Double](n)
    var free = Double.NegativeInfinity
    var i = 0
    while (i < n) {
      require(i == 0 || arrival(i) >= arrival(i - 1), s"arrivals out of order at job $i")
      require(service(i) >= 0, s"negative service time at job $i")
      start(i) = math.max(arrival(i), free)
      completion(i) = start(i) + service(i)
      free = completion(i)
      i += 1
    }
    Schedule(arrival, start, completion)
  }
}
