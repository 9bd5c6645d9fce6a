package spadebench

/** Minimal JSON rendering for the result line and result files. Values are
  * `Map`/`Seq` of strings, numbers, booleans and nested values; maps keep
  * their insertion order when given a `ListMap` or `LinkedHashMap`.
  */
object Json {

  def render(v: Any): String = v match {
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"JSON has no $d")
      d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case s: Iterable[_] => s.iterator.map(render).mkString("[", ", ", "]")
    case other => throw new IllegalArgumentException(s"cannot render ${other.getClass}")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }
}
