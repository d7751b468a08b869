"""Hand-worked cases for the benchmark's oracles.

Run with ``python -m pytest bench``.  Every expected value below is worked
out by hand in the comment beside it, not taken from the program.
"""

import math

import pytest

import oracles


def test_bleu_identical_is_one():
    ref = "the cat sat on the mat".split()
    assert oracles.bleu(ref, ref) == 1.0


def test_bleu_short_candidate_pays_brevity_penalty():
    # p1 = 2/2, p2 = 1/1; orders 3 and 4 have no n-grams, so 0 matches and
    # add-one smoothing gives 1/(0+1) = 1.  BP = exp(1 - 6/2) = e^-2.
    ref = "the cat sat on the mat".split()
    assert oracles.bleu(ref, ["the", "cat"]) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_bleu_smoothing_on_zero_counts():
    # ref a b c d, cand a b x d: p1 = 3/4; bigrams ab bx xd -> 1/3;
    # trigrams abx bxd -> no match -> 1/(2+1); 4-gram abxd -> 1/(1+1).
    # Same length, so BP = 1: BLEU = (3/4 * 1/3 * 1/3 * 1/2) ** (1/4) = (1/24) ** (1/4).
    got = oracles.bleu("a b c d".split(), "a b x d".split())
    assert got == pytest.approx((1.0 / 24.0) ** 0.25, rel=1e-12)


def test_bleu_clips_repeated_unigrams():
    # cand "a a a a" against ref "a b c d": clipped p1 = 1/4; bigram "a a" never
    # occurs in ref -> 1/(3+1); trigrams 1/(2+1); 4-gram 1/(1+1).
    got = oracles.bleu("a b c d".split(), "a a a a".split())
    assert got == pytest.approx((1 / 4 * 1 / 4 * 1 / 3 * 1 / 2) ** 0.25, rel=1e-12)


def test_bleu_zero_unigram_or_empty_candidate_is_zero():
    assert oracles.bleu(["a", "b"], ["c", "d"]) == 0.0
    assert oracles.bleu(["a", "b"], []) == 0.0


def test_rouge1_clipped_overlap():
    # ref a a b, cand a c: one clipped match; P = 1/2, R = 1/3, F = 2PR/(P+R) = 2/5.
    p, r, f = oracles.rouge1("a a b".split(), "a c".split())
    assert (p, r) == (0.5, 1.0 / 3.0)
    assert f == pytest.approx(0.4, rel=1e-12)


def test_rouge1_empty_side_is_zero():
    assert oracles.rouge1([], ["a"]) == (0.0, 0.0, 0.0)
    assert oracles.rouge1(["a"], []) == (0.0, 0.0, 0.0)
    assert oracles.rouge1(["a"], ["b"]) == (0.0, 0.0, 0.0)


def test_pair_counts_one_group():
    # human 1 2 3, metric 1 3 2: pairs (0,1) and (0,2) agree, (1,2) disagrees.
    counts = oracles.pair_counts([1, 2, 3], [1, 3, 2], ["g"] * 3, threshold=0.0)
    assert counts == dict(
        concordant=2, discordant=1, pairs_filtered=0, ties_discarded=0, pairs_total=3
    )
    assert oracles.agreement(counts) == pytest.approx(1.0 / 3.0)


def test_pair_counts_threshold_filters_close_pairs():
    # threshold 1.5: (0,1) and (1,2) differ by 1 on the human side and drop out;
    # (0,2) differs by 2 and agrees.
    counts = oracles.pair_counts([1, 2, 3], [1, 3, 2], ["g"] * 3, threshold=1.5)
    assert counts == dict(
        concordant=1, discordant=0, pairs_filtered=2, ties_discarded=0, pairs_total=3
    )


def test_pair_counts_ties_and_groups():
    # group x: human 5 5 (human tie at threshold 0); group y: metric 7 7 (metric tie)
    # and human 1 4 with metric 7 7 -> tie; group z has one item and no pairs.
    counts = oracles.pair_counts(
        [5, 5, 1, 4, 9], [1, 2, 7, 7, 3], ["x", "x", "y", "y", "z"], threshold=0.0
    )
    assert counts == dict(
        concordant=0, discordant=0, pairs_filtered=0, ties_discarded=2, pairs_total=2
    )


def test_pair_counts_groups_never_mix():
    # Within x: (2 vs 1, 20 vs 10) agrees; within y: (1 vs 2, 5 vs 3) disagrees.
    # Across groups nothing is compared.
    counts = oracles.pair_counts([2, 1, 1, 2], [20, 10, 5, 3], ["x", "x", "y", "y"], 0.0)
    assert counts["concordant"] == 1 and counts["discordant"] == 1
    assert counts["pairs_total"] == 2


def test_pairs_within_groups():
    # groups x x x y y z: 3 pairs in x, 1 in y, none in z.
    assert oracles.pairs_within_groups(list("xxxyyz")) == 4


def test_pearson_hand_worked():
    # x = 1 2 3, y = 2 4 7: dx = -1 0 1, dy = -7/3 -1/3 8/3; sum dx*dy = 5,
    # |dx| = sqrt 2, |dy| = sqrt(114)/3, so r = 15 / sqrt(228).
    assert oracles.pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(15.0 / math.sqrt(228.0), rel=1e-12)


def test_close():
    assert oracles.close(1.0, 1.0 + 1e-12)
    assert not oracles.close(1.0, 1.0 + 1e-6)
    assert oracles.close(0.0, 1e-12)
