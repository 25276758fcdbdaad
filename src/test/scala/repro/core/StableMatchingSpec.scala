package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Fixtures, SparkSpec}

class StableMatchingSpec extends SparkSpec with Fixtures {

  private def check(p: Prop, min: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), p)
    assert(res.passed, res.status.toString)
  }

  /** Random square matrix with all-distinct scores (strict preferences). */
  private val squareCells: Gen[Seq[(Long, Long, Double)]] = for {
    n <- Gen.choose(1, 8)
    perm <- Gen.const(scala.util.Random.shuffle((1 to n * n).toList))
  } yield {
    val it = perm.iterator
    for (i <- 0 until n; j <- 0 until n)
      yield (i.toLong, j.toLong, it.next().toDouble / (n * n))
  }

  // ---- paper worked examples -----------------------------------------

  test("Figure 4: DAA rounds produce (u1,v1),(u2,v2),(u3,v3)") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.6), (0L, 2L, 0.5),
      (1L, 0L, 0.8), (1L, 1L, 0.7), (1L, 2L, 0.1),
      (2L, 0L, 0.4), (2L, 1L, 0.6), (2L, 2L, 0.3))
    val expected = Map(0L -> 0L, 1L -> 1L, 2L -> 2L)
    assert(StableMatching.referenceDaa(m) == expected)
    assert(matchMap(StableMatching.daa(spark, mat(m))) == expected)
  }

  test("Figure 1: independent decisions mismatch, collective decisions recover") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.3), (0L, 2L, 0.2),
      (1L, 0L, 0.85), (1L, 1L, 0.8), (1L, 2L, 0.3),
      (2L, 0L, 0.2), (2L, 1L, 0.7), (2L, 2L, 0.65))
    val indep = matchMap(SimilarityMatrix.greedyMatch(mat(m)))
    assert(indep == Map(0L -> 0L, 1L -> 0L, 2L -> 1L)) // two mismatches
    val coll = matchMap(StableMatching.daa(spark, mat(m)))
    assert(coll == Map(0L -> 0L, 1L -> 1L, 2L -> 2L)) // all correct
  }

  // ---- reference implementation laws ----------------------------------

  test("reference DAA yields a perfect matching on square instances") {
    check(Prop.forAll(squareCells) { cells =>
      val n = cells.map(_._1).distinct.size
      val m = StableMatching.referenceDaa(cells)
      m.size == n && m.values.toSet.size == n
    })
  }

  test("reference DAA matchings have no blocking pairs (stability)") {
    check(Prop.forAll(squareCells) { cells =>
      StableMatching.blockingPairs(cells, StableMatching.referenceDaa(cells)).isEmpty
    })
  }

  test("blockingPairs detects an unstable (swapped) matching") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.3),
      (1L, 0L, 0.85), (1L, 1L, 0.8))
    // Valid but unstable: (0,0) blocks — src 0 prefers dst 0 (0.9 > 0.3)
    // and dst 0 prefers src 0 (0.9 > 0.85).
    assert(StableMatching.blockingPairs(m, Map(0L -> 1L, 1L -> 0L)) == Seq((0L, 0L)))
  }

  test("blockingPairs is empty for the unique stable matching of a diagonal-dominant matrix") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.1),
      (1L, 0L, 0.2), (1L, 1L, 0.8))
    assert(StableMatching.blockingPairs(m, Map(0L -> 0L, 1L -> 1L)).isEmpty)
    assert(StableMatching.blockingPairs(m, Map(0L -> 1L, 1L -> 0L)).nonEmpty)
  }

  test("reference DAA is source-optimal: every source gets its best stable partner") {
    // With strict preferences the Gale-Shapley outcome is the unique
    // source-optimal stable matching; on a matrix where the diagonal is
    // each source's top choice and targets agree, it must be the diagonal.
    val m = for (i <- 0L until 5L; j <- 0L until 5L)
      yield (i, j, if (i == j) 1.0 else 0.1 / (1 + i + j))
    assert(StableMatching.referenceDaa(m) == (0L until 5L).map(i => i -> i).toMap)
  }

  test("reference DAA handles more targets than sources") {
    val m = Seq(
      (0L, 0L, 0.5), (0L, 1L, 0.9), (0L, 2L, 0.1),
      (1L, 0L, 0.6), (1L, 1L, 0.95), (1L, 2L, 0.2))
    val got = StableMatching.referenceDaa(m)
    assert(got == Map(1L -> 1L, 0L -> 0L)) // 1 wins target 1, 0 falls back
  }

  // ---- distributed implementation -------------------------------------

  test("distributed DAA equals the reference on random instances") {
    // A handful of instances (each distributed run spawns Spark jobs).
    val rnd = new scala.util.Random(4)
    for (trial <- 1 to 5) {
      val n = 2 + rnd.nextInt(9)
      val perm = rnd.shuffle((1 to n * n).toList)
      val it = perm.iterator
      val cellSeq = for (i <- 0 until n; j <- 0 until n)
        yield (i.toLong, j.toLong, it.next().toDouble / (n * n))
      val expected = StableMatching.referenceDaa(cellSeq)
      val got = matchMap(StableMatching.daa(spark, mat(cellSeq)))
      assert(got == expected, s"trial $trial (n=$n): $got vs $expected")
    }
  }

  test("distributed DAA equals the reference on incomplete and rectangular instances") {
    // Source 2's only target goes to source 1, so source 2 stays unmatched.
    val incomplete = Seq((1L, 10L, 0.9), (2L, 10L, 0.8), (1L, 11L, 0.5))
    assert(StableMatching.referenceDaa(incomplete) == Map(1L -> 10L))
    assert(matchMap(StableMatching.daa(spark, mat(incomplete))) == Map(1L -> 10L))
    val rnd = new scala.util.Random(5)
    for (trial <- 1 to 6) {
      val (ns, nd) = (1 + rnd.nextInt(8), 1 + rnd.nextInt(8))
      val kept = for (i <- 0 until ns; j <- 0 until nd if rnd.nextDouble() < 0.6)
        yield (i.toLong, j.toLong)
      val ranks = rnd.shuffle(kept.indices.toList)
      val cellSeq = kept.zip(ranks).map { case ((i, j), r) => (i, j, (r + 1.0) / kept.size) }
      val expected = StableMatching.referenceDaa(cellSeq)
      val got = matchMap(StableMatching.daa(spark, mat(cellSeq)))
      assert(got == expected, s"trial $trial ($ns x $nd, ${kept.size} cells): $got vs $expected")
    }
  }

  test("distributed DAA equals the reference under score ties") {
    val tied = Seq(
      (0L, 0L, 0.5), (0L, 1L, 0.5),
      (1L, 0L, 0.5), (1L, 1L, 0.5))
    val expected = StableMatching.referenceDaa(tied)
    assert(expected == Map(0L -> 0L, 1L -> 1L)) // id tie-breaks both sides
    assert(matchMap(StableMatching.daa(spark, mat(tied))) == expected)
  }

  test("distributed DAA on a larger instance is perfect and stable") {
    val rnd = new scala.util.Random(11)
    val n = 40
    val perm = rnd.shuffle((1 to n * n).toList)
    val it = perm.iterator
    val cellSeq = for (i <- 0 until n; j <- 0 until n)
      yield (i.toLong, j.toLong, it.next().toDouble / (n * n))
    val got = matchMap(StableMatching.daa(spark, mat(cellSeq)))
    assert(got.size == n && got.values.toSet.size == n)
    assert(StableMatching.blockingPairs(cellSeq, got).isEmpty)
  }

  test("distributed DAA matches a 1x1 instance") {
    assert(matchMap(StableMatching.daa(spark, mat(Seq((7L, 3L, 0.2))))) == Map(7L -> 3L))
  }
}
