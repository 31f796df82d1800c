package org.apache.spark

/** Waits until Spark's asynchronous listener bus has delivered every event
  * posted so far, so job and task counts read after a pass are complete.
  * `listenerBus` is package-private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
