import numpy as np
import pytest
from scipy import stats as scipy_stats

from pairscore.errors import DataError, NumericError
from pairscore.stats import (
    CorrelationReport,
    SkewConfig,
    _count_pairs,
    darr,
    expected_train_fraction,
    kendall_pairwise,
    pearson,
    skew_bin_indices,
    skew_split,
)
from pairscore.text import RatedExample, SentencePair, TokenSeq

from stats_oracle import reference_walk_pairs

# ---------------------------------------------------------------------------
# Exhaustive pair-enumeration oracle, independent of the implementation.
# ---------------------------------------------------------------------------


def oracle_pair_walk(human, metric, groups, threshold):
    conc = disc = 0
    n = len(human)
    for i in range(n):
        for j in range(i + 1, n):
            if groups[i] != groups[j]:
                continue
            if abs(human[i] - human[j]) < threshold:
                continue
            if human[i] == human[j]:
                continue
            if metric[i] == metric[j]:
                continue
            human_says = human[i] > human[j]
            metric_says = metric[i] > metric[j]
            if human_says == metric_says:
                conc += 1
            else:
                disc += 1
    return conc, disc


def random_instance(rng, allow_ties=True):
    n_groups = int(rng.integers(1, 4))
    human, metric, groups = [], [], []
    for g in range(n_groups):
        size = int(rng.integers(2, 9))
        for _ in range(size):
            if allow_ties and rng.random() < 0.3:
                human.append(float(rng.integers(0, 4) * 25))
            else:
                human.append(float(rng.uniform(0, 100)))
            if allow_ties and rng.random() < 0.2:
                metric.append(round(float(rng.uniform(0, 1)), 1))
            else:
                metric.append(float(rng.uniform(0, 1)))
            groups.append(g)
    return human, metric, groups


class TestKendallPairwise:
    def test_perfect_concordance(self):
        human = [1.0, 2.0, 3.0, 4.0]
        metric = [0.1, 0.2, 0.3, 0.4]
        assert kendall_pairwise(human, metric, [0] * 4) == 1.0

    def test_perfect_discordance(self):
        human = [1.0, 2.0, 3.0, 4.0]
        metric = [0.4, 0.3, 0.2, 0.1]
        assert kendall_pairwise(human, metric, [0] * 4) == -1.0

    def test_hand_enumerated_case(self):
        # pairs: (3,2) C, (3,1) C, (2,1) D -> (2-1)/3
        got = kendall_pairwise([3, 2, 1], [0.3, 0.1, 0.2], [0, 0, 0])
        assert got == pytest.approx(1 / 3)

    def test_human_ties_discarded(self):
        got = kendall_pairwise([1.0, 1.0, 2.0], [0.9, 0.1, 1.0], [0] * 3)
        # (1,2) tied on human; remaining two pairs concordant and concordant
        assert got == pytest.approx(1.0)

    def test_no_usable_pairs_errors(self):
        with pytest.raises(DataError):
            kendall_pairwise([1.0, 1.0], [0.1, 0.2], [0, 0])
        with pytest.raises(DataError):
            kendall_pairwise([1.0, 2.0], [0.5, 0.5], [0, 0])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(500):
            human, metric, groups = random_instance(rng)
            conc, disc = oracle_pair_walk(human, metric, groups, threshold=0.0)
            if conc + disc == 0:
                continue
            got = kendall_pairwise(human, metric, groups)
            assert got == pytest.approx((conc - disc) / (conc + disc), abs=1e-12)
            checked += 1
        assert checked > 400

    def test_matches_scipy_on_tie_free_single_group(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            human = rng.permutation(n).astype(float)
            metric = rng.uniform(0, 1, size=n)
            got = kendall_pairwise(list(human), list(metric), [0] * n)
            want = scipy_stats.kendalltau(human, metric).statistic
            assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            human, metric, groups = random_instance(rng, allow_ties=False)
            base = kendall_pairwise(human, metric, groups)
            squashed = kendall_pairwise(human, [np.tanh(3 * m) + 5 for m in metric], groups)
            assert base == pytest.approx(squashed, abs=1e-12)


class TestDarr:
    def test_hand_case_filters_close_pair(self):
        report = darr([80.0, 70.0, 40.0], [0.8, 0.9, 0.1], [0] * 3, threshold=25)
        assert report.darr == 1.0
        assert report.pairs_filtered == 1
        assert report.concordant == 2
        assert report.discordant == 0

    def test_threshold_zero_equals_kendall(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            human, metric, groups = random_instance(rng)
            try:
                tau = kendall_pairwise(human, metric, groups)
            except DataError:
                continue
            report = darr(human, metric, groups, threshold=0.0)
            assert report.darr == tau

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(500):
            human, metric, groups = random_instance(rng)
            conc, disc = oracle_pair_walk(human, metric, groups, threshold=25.0)
            if conc + disc == 0:
                continue
            report = darr(human, metric, groups, threshold=25.0)
            assert report.darr == pytest.approx((conc - disc) / (conc + disc), abs=1e-12)
            checked += 1
        assert checked > 300

    def test_grouping_changes_pair_count(self):
        human = [90.0, 10.0, 80.0, 20.0]
        metric = [0.9, 0.1, 0.8, 0.2]
        merged = darr(human, metric, [0, 0, 0, 0], threshold=25)
        split = darr(human, metric, [0, 0, 1, 1], threshold=25)
        assert merged.pairs_total == 6
        assert split.pairs_total == 2

    def test_filtered_empty_vs_input_empty(self):
        with pytest.raises(NumericError) as filtered:
            darr([50.0, 51.0], [0.5, 0.6], [0, 0], threshold=25)
        assert "filtered-empty" in str(filtered.value)
        with pytest.raises(DataError) as empty:
            darr([50.0, 60.0], [0.5, 0.6], [0, 1], threshold=25)
        assert "input-empty" in str(empty.value)

    def test_count_invariant(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            human, metric, groups = random_instance(rng)
            try:
                report = darr(human, metric, groups, threshold=25.0)
            except (DataError, NumericError):
                continue
            assert report.concordant + report.discordant == (
                report.pairs_total - report.pairs_filtered - report.ties_discarded
            )

    def test_report_validates_counts(self):
        with pytest.raises(NumericError):
            CorrelationReport(
                kendall=0.0, pearson=0.0, darr=0.0, pairs_total=3, pairs_filtered=1,
                ties_discarded=0, concordant=1, discordant=0, threshold=25.0,
            )


def assert_counts_match(human, metric, groups, threshold):
    want = reference_walk_pairs(human, metric, groups, threshold)
    assert _count_pairs(human, metric, groups, threshold) == want
    return want


class TestSweepMatchesWalk:
    """The sorted sweep gives all five counts of the pair walk, bit for bit."""

    def test_many_groups_with_singletons_and_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 8)))
            human = (rng.integers(0, 11, size=sizes.sum()) * 10.0).tolist()
            metric = np.round(rng.uniform(0, 1, size=sizes.sum()), 1).tolist()
            groups = np.repeat(np.arange(len(sizes)), sizes).tolist()
            for threshold in (0.0, 10.0, 25.0, -5.0):
                assert_counts_match(human, metric, groups, threshold)
            try:
                tau = kendall_pairwise(human, metric, groups)
            except DataError:
                continue
            assert darr(human, metric, groups, threshold=0.0).darr == tau

    def test_one_large_group(self):
        rng = np.random.default_rng(22)
        human = np.round(rng.uniform(0, 100, size=600), 1).tolist()
        metric = np.round(rng.uniform(0, 1, size=600), 2).tolist()
        for threshold in (0.0, 25.0):
            conc, disc, filtered, ties, total = assert_counts_match(human, metric, [0] * 600, threshold)
            assert total == 600 * 599 // 2
            assert conc and disc and ties
            assert (filtered > 0) == (threshold > 0)

    def test_float_boundary_on_a_tenth_grid(self):
        # 32.3 - 7.3 rounds below 25 and is filtered; 25.1 - 0.1 is exactly 25.0 and kept.
        assert 32.3 - 7.3 < 25 and 25.1 - 0.1 == 25
        grid = [round(0.1 * k, 1) for k in range(0, 1001, 5)]
        metric = [((k * 37) % 11) / 10 for k in range(len(grid))]
        assert_counts_match(grid, metric, [0] * len(grid), 25.0)
        assert assert_counts_match([0.1, 25.1], [0.2, 0.1], [0, 0], 25.0) == (0, 1, 0, 0, 1)
        assert assert_counts_match([7.3, 32.3], [0.2, 0.1], [0, 0], 25.0) == (0, 0, 1, 0, 1)

    def test_negative_threshold_and_key_types(self):
        rng = np.random.default_rng(23)
        human = rng.integers(0, 5, size=60).astype(float).tolist()
        metric = rng.integers(0, 4, size=60).astype(float).tolist()
        int_keys = rng.integers(0, 6, size=60).tolist()
        str_keys = [f"seg{k}" for k in int_keys]
        for threshold in (-1.0, 0.0, 1.0, 2.5):
            assert assert_counts_match(human, metric, int_keys, threshold) == _count_pairs(
                human, metric, str_keys, threshold
            )

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError):
            _count_pairs([1.0, 2.0], [0.1, 0.2], [0], 0.0)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejected(self, bad):
        for human, metric in (([1.0, bad, 3.0], [0.1, 0.2, 0.3]), ([1.0, 2.0, 3.0], [0.1, bad, 0.3])):
            with pytest.raises(DataError, match="finite"):
                kendall_pairwise(human, metric, [0, 0, 0])
            with pytest.raises(DataError, match="finite"):
                darr(human, metric, [0, 0, 0], threshold=0.5)


class TestPearson:
    def test_affine(self):
        x = [1.0, 2.0, 5.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_anti_affine(self):
        x = [1.0, 2.0, 5.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_three_point_closed_form(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_constant_errors(self):
        with pytest.raises(NumericError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_matches_closed_form_on_random_threes(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=3)
            y = rng.uniform(-5, 5, size=3)
            dx, dy = x - x.mean(), y - y.mean()
            denom = np.sqrt((dx**2).sum() * (dy**2).sum())
            if denom == 0:
                continue
            assert pearson(list(x), list(y)) == pytest.approx(float((dx * dy).sum() / denom))

    def test_matches_scipy(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(0, 1, size=40)
        y = rng.uniform(0, 1, size=40)
        assert pearson(list(x), list(y)) == pytest.approx(
            scipy_stats.pearsonr(x, y).statistic, abs=1e-12
        )


def _examples(ratings):
    empty = TokenSeq((), ())
    return [
        RatedExample(SentencePair(empty, empty), float(r), f"s{i}")
        for i, r in enumerate(ratings)
    ]


class TestSkewSplit:
    def test_alpha_zero_keeps_everything(self):
        data = _examples(np.linspace(0, 100, 50))
        train, test = skew_split(data, SkewConfig(0.0, 0.0, seed=1))
        assert train == data
        assert test == data

    def test_deterministic(self):
        data = _examples(np.random.default_rng(0).uniform(0, 100, size=80))
        a = skew_split(data, SkewConfig(1.5, 1.5, seed=9))
        b = skew_split(data, SkewConfig(1.5, 1.5, seed=9))
        assert a == b

    def test_expected_fraction_alpha3(self):
        frac = expected_train_fraction(3.0, 10)
        assert frac == pytest.approx(0.1197531985674193, abs=1e-12)
        got = sum(1.0 / b**3 for b in range(1, 11)) / 10
        assert frac == got

    def test_empirical_fraction_alpha3(self):
        data = _examples(np.random.default_rng(1).uniform(0, 100, size=20000))
        train, _ = skew_split(data, SkewConfig(3.0, 0.0, seed=5))
        assert len(train) / len(data) == pytest.approx(0.1198, abs=0.01)

    def test_train_skews_low_test_skews_high(self):
        data = _examples(np.random.default_rng(2).uniform(0, 100, size=5000))
        train, test = skew_split(data, SkewConfig(1.5, 1.5, seed=3))
        mean_all = np.mean([ex.rating for ex in data])
        assert np.mean([ex.rating for ex in train]) < mean_all
        assert np.mean([ex.rating for ex in test]) > mean_all

    def test_disjoint_flag(self):
        data = _examples(np.random.default_rng(3).uniform(0, 100, size=500))
        train, test = skew_split(data, SkewConfig(0.5, 0.5, seed=7, disjoint=True))
        train_ids = {ex.source_id for ex in train}
        assert all(ex.source_id not in train_ids for ex in test)

    def test_disjoint_keeps_sources_of_several_records_apart(self):
        ratings = np.random.default_rng(5).uniform(0, 100, size=40)
        data = [
            RatedExample(ex.pair, ex.rating, f"s{i // 2}") for i, ex in enumerate(_examples(ratings))
        ]
        train, test = skew_split(data, SkewConfig(0.0, 0.0, seed=1, disjoint=True))
        train_ids, test_ids = {ex.source_id for ex in train}, {ex.source_id for ex in test}
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 20 and train_ids and test_ids

    def test_disjoint_draws_records_as_if_each_were_its_own_source(self):
        ratings = np.random.default_rng(6).uniform(0, 100, size=300)
        alone = _examples(ratings)
        # records 0-59 share sources in threes; the rest stay alone
        shared = [
            RatedExample(ex.pair, ex.rating, f"g{i // 3}" if i < 60 else ex.source_id)
            for i, ex in enumerate(alone)
        ]
        config = SkewConfig(0.5, 0.5, seed=3, disjoint=True)
        single = set(ratings[60:])  # the ratings are distinct, so they name the records
        for got, want in zip(skew_split(shared, config), skew_split(alone, config)):
            got, want = {ex.rating for ex in got}, {ex.rating for ex in want}
            assert got & single == want & single
            assert got <= want

    def test_disjoint_alpha_zero_populates_both_sides(self):
        data = _examples(np.random.default_rng(4).uniform(0, 100, size=400))
        train, test = skew_split(data, SkewConfig(0.0, 0.0, seed=2, disjoint=True))
        assert len(train) + len(test) == len(data)
        assert 100 < len(train) < 300  # coin-flip assignment, roughly half

    def test_marginal_inclusion_probability(self):
        # one record pinned per bin; frequency over many seeds ~ 1/B^alpha
        data = _examples(np.arange(10, dtype=float))
        alpha = 2.0
        hits = np.zeros(10)
        trials = 10000
        for seed in range(trials):
            train, _ = skew_split(data, SkewConfig(alpha, 0.0, seed=seed))
            for ex in train:
                hits[int(ex.source_id[1:])] += 1
        freq = hits / trials
        expected = np.array([1.0 / (b**alpha) for b in range(1, 11)])
        np.testing.assert_allclose(freq, expected, atol=0.01)

    def test_bin_indices_equal_size(self):
        bins = skew_bin_indices(100, 10)
        counts = np.bincount(bins)[1:]
        assert (counts == 10).all()
        assert bins[0] == 1 and bins[-1] == 10

    def test_too_few_records_errors(self):
        with pytest.raises(DataError):
            skew_split(_examples([1.0] * 5), SkewConfig(1.0, 1.0, n_bins=10))
