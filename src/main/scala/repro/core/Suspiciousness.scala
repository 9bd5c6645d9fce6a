package repro.core

/** One transaction = one directed edge of the evolving graph.
  *
  * @param src     paying account (customer)
  * @param dst     paid account (merchant / "object vertex")
  * @param amount  transaction amount — the raw weight DW uses
  * @param ts      arrival timestamp in virtual seconds (monotone in replay)
  * @param fraudId label: >= 0 marks a planted fraud community, -1 is benign.
  *                Labels drive the latency / prevention-ratio metrics of
  *                §4.3–§5.2; the detector never reads them.
  */
final case class Tx(src: Int, dst: Int, amount: Double, ts: Double = 0.0, fraudId: Int = -1) {
  def isFraud: Boolean = fraudId >= 0
}

/** The programmability surface of Spade (§3): a fraud semantic is a pair of
  * user-defined suspiciousness functions,
  *
  *  - `vsusp(u, g)`   — prior suspiciousness `a_u >= 0` of a vertex, and
  *  - `esusp(tx, g)`  — suspiciousness `c_ij > 0` of an incoming edge,
  *
  * evaluated against the *current* graph at insertion time. Any metric of the
  * arithmetic-density family `g(S) = f(S)/|S|` with `a_i >= 0`, `c_ij > 0`
  * (Property 3.1) is supported; DG, DW and FD below are the paper's three
  * instances (Appendix F).
  */
trait Suspiciousness {
  /** Short name used in benchmark tables ("DG", "DW", "FD", ...). */
  def name: String

  /** Prior suspiciousness of a newly materialized vertex. Must be >= 0. */
  def vsusp(u: Int, g: DynGraph): Double

  /** Suspiciousness of a new edge, evaluated before it is added. Must be > 0. */
  def esusp(tx: Tx, g: DynGraph): Double
}

object Suspiciousness {

  /** DG — Charikar's unweighted densest subgraph: `g(S) = |E[S]| / |S|`.
    * Every edge counts 1, vertices carry no prior.
    */
  object DG extends Suspiciousness {
    val name = "DG"
    def vsusp(u: Int, g: DynGraph): Double = 0.0
    def esusp(tx: Tx, g: DynGraph): Double = 1.0
  }

  /** DW — dense *weighted* subgraph: the edge weight is the transaction
    * amount, `g(S) = Σ c_ij / |S|`.
    */
  object DW extends Suspiciousness {
    val name = "DW"
    def vsusp(u: Int, g: DynGraph): Double = 0.0
    def esusp(tx: Tx, g: DynGraph): Double = {
      require(tx.amount > 0, s"DW needs a positive amount, got ${tx.amount}")
      tx.amount
    }
  }

  /** FD — Fraudar: camouflage-resistant column weighting
    * `esusp(u_i, u_j) = 1 / log(x + c)` where `x` is the degree of the
    * object vertex (the merchant `u_j`) and `c = 5` as in [Hooi et al.].
    *
    * The degree is taken *including* the edge being inserted (so the very
    * first edge of a merchant sees x = 1), which keeps the weight
    * deterministic under replay. `prior` is the optional side-information
    * vertex suspiciousness of the original paper (defaults to 0).
    */
  final class Fraudar(prior: Int => Double = _ => 0.0) extends Suspiciousness {
    val name = "FD"
    def vsusp(u: Int, g: DynGraph): Double = {
      val p = prior(u)
      require(p >= 0, s"FD prior must be non-negative, got $p for vertex $u")
      p
    }
    def esusp(tx: Tx, g: DynGraph): Double = {
      val objDeg =
        if (tx.dst < g.numVertices) g.inDegree(tx.dst) + 1
        else 1
      1.0 / math.log(objDeg + 5.0)
    }
  }

  /** Default FD instance (no side information, c = 5). */
  val FD: Fraudar = new Fraudar()

  /** The three paper instances, in the order the tables report them. */
  def paperMetrics: Seq[Suspiciousness] = Seq(DG, DW, FD)
}
