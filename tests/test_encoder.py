import math
import tracemalloc

import numpy as np
import pytest

from encoder_oracle import reference_forward, reference_gradients
from pairscore.encoder import (
    Batch,
    EncoderConfig,
    ModelParams,
    PackedPairs,
    _attention_blocks,
    _attention_softmax,
    _attention_softmax_backward,
    _erf,
    _gelu,
    _real_rows,
    build_batch,
    forward,
    gradients,
    init_model,
    load_checkpoint,
    pack_pair,
    pretrain_loss,
    save_checkpoint,
    supervised_loss,
)
from pairscore.errors import DataError, NumericError
from pairscore.signals import TaskSpec
from pairscore.text import RESERVED_TOKENS, RatedExample, SentencePair, TokenSeq, Vocabulary, tokenize
from pairscore.training import PREDICT_CHUNK, predict_ratings

# The encoder has no dropout.  These oracle cases once ran at rates 0.0 and
# 0.1; the one rate left keeps their ids.
NO_DROPOUT = pytest.mark.parametrize("dropout", [0.0])

CORPUS = [
    "the cat sat on the mat".split(),
    "a dog ran to the rug".split(),
]


@pytest.fixture
def vocab():
    return Vocabulary.build(CORPUS, min_count=1)


@pytest.fixture
def tiny_config(vocab):
    return EncoderConfig(
        vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=16,
        init_seed=3,
    )


@pytest.fixture
def small_config(vocab):
    return EncoderConfig(
        vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=4, d_ff=32, max_seq_len=32,
        init_seed=1,
    )


def make_pairs(vocab, texts):
    return [SentencePair(tokenize(r, vocab), tokenize(c, vocab)) for r, c in texts]


def cached_attention(lc):
    """A layer's cached attention weights as one (B, h, rows, T) array, 0 on padding query rows.

    The cache holds them per block of examples, and only the real query rows
    when the batch has padding, one (h, T) slab per row in (example, row) order.
    """
    held = np.concatenate(lc["attn"])
    if lc["real"] is None:
        return held
    b, h, rows, _ = lc["q4"].shape
    assert held.shape[0] == len(lc["real"])
    out = np.zeros((b, h, rows, held.shape[-1]))
    examples, positions = np.divmod(lc["real"], rows)
    out[examples, :, positions] = held
    return out


def signal_targets_for(tasks, batch_size, seed=0):
    rng = np.random.default_rng(seed)
    targets = {}
    for task in tasks:
        if task.kind == "regression":
            targets[task.name] = rng.normal(size=(batch_size, task.dim))
        elif task.dim == 3:
            raw = rng.uniform(0.1, 1.0, size=(batch_size, 3))
            targets[task.name] = raw / raw.sum(axis=1, keepdims=True)
        else:
            flags = rng.integers(0, 2, size=batch_size)
            onehot = np.zeros((batch_size, 2))
            onehot[np.arange(batch_size), flags] = 1.0
            targets[task.name] = onehot
    return targets


class TestBatchPacking:
    def test_pack_layout(self, vocab):
        pair = make_pairs(vocab, [("the cat", "a dog")])[0]
        ids, segs = pack_pair(pair, vocab)
        assert ids[0] == vocab.cls_id
        assert ids.count(vocab.sep_id) == 2
        assert len(ids) == len(segs) == 2 + 2 + 2 + 1
        # segment 0 covers [cls] + reference + first [sep]
        assert segs[:4] == [0, 0, 0, 0]
        assert segs[4:] == [1, 1, 1]

    def test_padding_masked(self, vocab):
        pairs = make_pairs(vocab, [("the cat sat", "a dog"), ("the", "a")])
        batch = build_batch(pairs, vocab)
        assert batch.ids.shape == batch.mask.shape
        assert batch.mask[1].sum() == 5  # cls + 1 + sep + 1 + sep
        assert (batch.ids[1][batch.mask[1] == 0.0] == vocab.pad_id).all()

    @pytest.mark.parametrize("width", [None, 15])
    def test_packed_pairs_equal_per_row_packing(self, vocab, width):
        pairs = make_pairs(vocab, [("the cat sat", "a dog"), ("the", ""), ("a dog sat on the mat", "the cat"),
                                   ("", "a")])
        rows = [pack_pair(p, vocab) for p in pairs]
        shape = (len(rows), width or max(len(ids) for ids, _ in rows))
        want = {"ids": np.full(shape, vocab.pad_id, dtype=np.int64),
                "segments": np.zeros(shape, dtype=np.int64), "mask": np.zeros(shape)}
        for i, (ids, segs) in enumerate(rows):
            want["ids"][i, : len(ids)] = ids
            want["segments"][i, : len(segs)] = segs
            want["mask"][i, : len(ids)] = 1.0
        packed, batch = PackedPairs(pairs, vocab, width=width), build_batch(pairs, vocab, width=width)
        for name, array in want.items():
            for got in (getattr(packed, name), getattr(batch, name)):
                assert got.dtype == array.dtype and np.array_equal(got, array), name

    def test_width_below_the_longest_pair_errors(self, vocab):
        pairs = make_pairs(vocab, [("the cat sat", "a dog")])
        with pytest.raises(DataError, match="width 7"):
            build_batch(pairs, vocab, width=7)

    def test_overlong_sequence_errors(self, vocab, tiny_config):
        params = init_model(tiny_config)
        long_pair = make_pairs(vocab, [("the cat sat on the mat " * 3, "a dog")])
        batch = build_batch(long_pair, vocab)
        with pytest.raises(DataError):
            forward(params, batch)


class TestForward:
    def test_output_shapes(self, vocab, small_config):
        params = init_model(small_config)
        pairs = make_pairs(vocab, [("the cat sat", "a dog ran"), ("the mat", "the rug")])
        result = forward(params, build_batch(pairs, vocab))
        assert result.cls.shape == (2, 16)
        assert result.ratings.shape == (2,)
        for task in params.tasks:
            assert result.task_outputs[task.name].shape == (2, task.dim)

    def test_zero_rating_weights_give_constant_bias(self, vocab, small_config):
        params = init_model(small_config)
        params.tensors["rating.w"][:] = 0.0
        params.tensors["rating.b"][0] = 0.731
        pairs = make_pairs(vocab, [("the cat", "a dog"), ("the mat", "the rug ran")])
        result = forward(params, build_batch(pairs, vocab))
        np.testing.assert_allclose(result.ratings, 0.731, atol=1e-15)

    def test_attention_rows_sum_to_one(self, vocab, small_config):
        params = init_model(small_config)
        pairs = make_pairs(vocab, [("the cat sat", "a dog"), ("the", "a")])
        batch = build_batch(pairs, vocab)
        result = forward(params, batch, want_cache=True)
        for lc in result.cache["layers"]:
            # (B, h, rows) sums of the query rows the block computes
            attn = cached_attention(lc)
            sums = attn.sum(axis=-1)
            real = batch.mask[:, None, : sums.shape[-1]] > 0.0
            np.testing.assert_allclose(sums[np.broadcast_to(real, sums.shape)], 1.0, atol=1e-6)
            # padding query rows are neither computed nor cached, so they read as exactly 0
            assert not attn[np.broadcast_to(~real, sums.shape)].any()

    def test_padded_keys_get_zero_attention(self, vocab, small_config):
        params = init_model(small_config)
        pairs = make_pairs(vocab, [("the cat sat on the mat", "a dog"), ("the", "a")])
        batch = build_batch(pairs, vocab)
        result = forward(params, batch, want_cache=True)
        pad_cols = batch.mask[1] == 0.0
        attn = cached_attention(result.cache["layers"][0])[1]
        assert attn[:, :, pad_cols].max() == 0.0

    def test_layer_norm_pre_affine_stats(self, vocab, small_config):
        params = init_model(small_config)
        pairs = make_pairs(vocab, [("the cat sat on the mat", "a dog ran to the rug")])
        result = forward(params, build_batch(pairs, vocab), want_cache=True)
        for lc in result.cache["layers"]:
            for key in ("ln1", "ln2"):
                xhat, _ = lc[key]
                np.testing.assert_allclose(xhat.mean(axis=-1), 0.0, atol=1e-5)
                np.testing.assert_allclose(xhat.var(axis=-1), 1.0, atol=1e-5)

    def test_batch_equivariance(self, vocab, small_config):
        params = init_model(small_config)
        pairs = make_pairs(
            vocab,
            [("the cat sat", "a dog"), ("the mat", "the rug ran"), ("a dog ran", "the cat")],
        )
        fwd = forward(params, build_batch(pairs, vocab))
        permuted = forward(params, build_batch([pairs[2], pairs[0], pairs[1]], vocab))
        np.testing.assert_allclose(permuted.ratings, fwd.ratings[[2, 0, 1]], atol=1e-12)
        np.testing.assert_allclose(permuted.cls, fwd.cls[[2, 0, 1]], atol=1e-12)

    def test_inference_deterministic(self, vocab, small_config):
        params = init_model(small_config)
        pairs = make_pairs(vocab, [("the cat sat", "a dog ran")])
        batch = build_batch(pairs, vocab)
        a = forward(params, batch)
        b = forward(params, batch)
        np.testing.assert_array_equal(a.ratings, b.ratings)


def assert_same_bits(got, want):
    """Equal value and sign bit everywhere, and NaN exactly where ``want`` is NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    differ = got[~nan].view(np.int64) != want[~nan].view(np.int64)
    assert not differ.any(), f"{differ.sum()} of {differ.size} differ"


class TestErf:
    """``_erf`` against ``scipy.special.erf``, which it replaces; scipy is only the oracle."""

    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.3, 0.7, 1.5, 3.0, 8.0, 40.0])
    def test_normal_draws(self, scale):
        special = pytest.importorskip("scipy.special")
        x = np.random.default_rng(int(scale * 100)).normal(scale=scale, size=(1250, 1000))
        assert_same_bits(_erf(x), special.erf(x))

    def test_empty(self):
        assert _erf(np.zeros((0, 64))).shape == (0, 64)

    def test_edges(self):
        special = pytest.importorskip("scipy.special")
        points = [0.0, 1.0, 8.0]
        near = [np.nextafter(p, d) for p in points for d in (-np.inf, np.inf)]
        big = [26.6, 27.0, 5e-324, 1e300, np.inf]
        x = np.array(points + near + big)
        x = np.concatenate([x, -x, [np.nan]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _erf(x)
        assert_same_bits(got, special.erf(x))

    def test_gelu_equals_the_scipy_form(self):
        special = pytest.importorskip("scipy.special")

        def scipy_gelu(x):
            rows = x.reshape(-1, x.shape[-1])
            cdf = 0.5 * (1.0 + special.erf(rows / math.sqrt(2.0)))
            return (rows * cdf).reshape(x.shape), (rows, cdf)

        x = np.random.default_rng(9).normal(scale=2.0, size=(4, 16, 64))
        out, (rows, cdf) = _gelu(x, None)
        want_out, (want_rows, want_cdf) = scipy_gelu(x)
        assert_same_bits(out, want_out)
        assert_same_bits(rows, want_rows)
        assert_same_bits(cdf, want_cdf)


class TestLosses:
    def test_supervised_perfect_fit(self):
        y = np.array([0.3, -1.2, 4.0])
        assert supervised_loss(y, y) == 0.0

    def test_supervised_unit_error(self):
        assert supervised_loss(np.array([0.0]), np.array([1.0])) == 1.0

    def test_supervised_matches_elementwise_oracle(self):
        rng = np.random.default_rng(21)
        pred = rng.normal(size=5)
        tgt = rng.normal(size=5)
        oracle = sum((p - t) ** 2 for p, t in zip(pred, tgt)) / 5
        assert supervised_loss(pred, tgt) == pytest.approx(oracle, abs=1e-12)

    def test_pretrain_regression_hand_case(self):
        task = TaskSpec("toy", "regression", 3, weight=2.0)
        out = {"toy": np.array([[1.0, 1.0, 1.0]])}
        tgt = {"toy": np.array([[0.0, 0.0, 0.0]])}
        assert pretrain_loss(out, tgt, [task]) == pytest.approx(2.0, abs=1e-9)

    def test_pretrain_uniform_softmax_cross_entropy(self):
        task = TaskSpec("cls3", "classification", 3, weight=1.0)
        out = {"cls3": np.zeros((4, 3))}  # uniform predicted distribution
        tgt = {"cls3": np.tile([0.2, 0.5, 0.3], (4, 1))}
        assert pretrain_loss(out, tgt, [task]) == pytest.approx(math.log(3.0), abs=1e-9)

    def test_zero_weight_task_is_ablated(self):
        t1 = TaskSpec("a", "regression", 2, weight=1.0)
        t2 = TaskSpec("b", "regression", 4, weight=0.0)
        rng = np.random.default_rng(2)
        out = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))}
        tgt = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))}
        full = pretrain_loss(out, tgt, [t1, t2])
        only_first = pretrain_loss({"a": out["a"]}, {"a": tgt["a"]}, [t1])
        assert full == pytest.approx(only_first, abs=1e-12)

    def test_mismatched_dims_error(self):
        task = TaskSpec("a", "regression", 3)
        with pytest.raises(DataError):
            pretrain_loss({"a": np.zeros((2, 2))}, {"a": np.zeros((2, 3))}, [task])


# ---------------------------------------------------------------------------
# Gradient checking against central finite differences.
# ---------------------------------------------------------------------------


def loss_only(params, batch):
    result = forward(params, batch)
    if batch.ratings is not None:
        return supervised_loss(result.ratings, batch.ratings)
    return pretrain_loss(result.task_outputs, batch.signal_targets, params.tasks)


def with_tasks(params, tasks):
    """``params`` with another task table over the same tensors."""
    return ModelParams(params.config, tasks, params.tensors)


def max_relative_fd_error(params, batch, h=1e-4):
    """Max over parameter tensors of ||analytic - central-difference|| / ||gradient||.

    Norm-relative per tensor: robust to individual near-saddle coordinates
    where the h^2 truncation term of the central difference dominates a tiny
    true gradient, while still catching any structural backward-pass bug
    (those corrupt whole tensors, not single entries).
    """
    _, analytic = gradients(params, batch)
    worst = 0.0
    for name, arr in params.tensors.items():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_only(params, batch)
            arr[idx] = orig - h
            down = loss_only(params, batch)
            arr[idx] = orig
            fd[idx] = (up - down) / (2 * h)
            it.iternext()
        a = analytic[name]
        err = np.linalg.norm(a - fd) / max(np.linalg.norm(a), np.linalg.norm(fd), 1e-8)
        worst = max(worst, err)
    return worst


@pytest.fixture
def grad_setup(vocab, tiny_config):
    """A model, a rated batch and a batch of signal targets over the same pair."""
    params = init_model(tiny_config)
    pairs = make_pairs(vocab, [("the cat sat", "a dog")])
    rated = build_batch(pairs, vocab, ratings=[0.8])
    signals = build_batch(pairs, vocab, signal_targets=signal_targets_for(params.tasks, 1, seed=5))
    return params, rated, signals


class TestGradients:
    def test_supervised_gradient_check(self, grad_setup):
        params, rated, _ = grad_setup
        assert max_relative_fd_error(params, rated) < 1e-4

    def test_full_mixture_gradient_check(self, grad_setup):
        params, _, signals = grad_setup
        assert max_relative_fd_error(params, signals) < 1e-4

    def test_single_task_gradient_checks(self, grad_setup):
        params, _, signals = grad_setup
        for task in params.tasks:
            spec = tuple(
                t.with_weight(1.0 if t.name == task.name else 0.0) for t in params.tasks
            )
            assert max_relative_fd_error(with_tasks(params, spec), signals) < 1e-4, task.name

    def test_dead_path_gradient_exactly_zero(self, grad_setup):
        params, _, signals = grad_setup
        spec = tuple(
            t.with_weight(0.0 if t.name == "rouge" else t.weight) for t in params.tasks
        )
        _, grads = gradients(with_tasks(params, spec), signals)
        assert np.all(grads["head.rouge.w"] == 0.0)
        assert np.all(grads["head.rouge.b"] == 0.0)

    def test_supervised_leaves_task_heads_untouched(self, grad_setup):
        params, rated, _ = grad_setup
        _, grads = gradients(params, rated)
        for task in params.tasks:
            assert np.all(grads[f"head.{task.name}.w"] == 0.0)

    def test_doubling_weights_doubles_gradients(self, grad_setup):
        params, _, signals = grad_setup
        double_spec = tuple(t.with_weight(2.0 * t.weight) for t in params.tasks)
        loss1, g1 = gradients(params, signals)
        loss2, g2 = gradients(with_tasks(params, double_spec), signals)
        assert loss2 == pytest.approx(2.0 * loss1, rel=1e-12)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_pad_embedding_gradient_zero(self, vocab, tiny_config):
        params = init_model(tiny_config)
        pairs = make_pairs(vocab, [("the cat sat on", "a dog"), ("the", "a")])
        batch = build_batch(pairs, vocab, ratings=[0.1, -0.4])
        _, grads = gradients(params, batch)
        assert np.all(grads["tok_emb"][vocab.pad_id] == 0.0)

    def test_non_finite_input_identifies_layer(self, grad_setup):
        params, batch, _ = grad_setup
        params.tensors["layer0.w1"][:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError) as info:
                forward(params, batch)
        assert "layer 0" in str(info.value)


class TestPaddedBatches:
    """The [cls]-only last block against finite differences and the full-width oracle."""

    def test_gradient_check_on_padded_batch(self, vocab):
        config = EncoderConfig(
            vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=16,
            init_seed=4,
        )
        params = init_model(config)
        pairs = make_pairs(
            vocab, [("the cat sat on the mat", "a dog ran"), ("the", "a"), ("a dog", "the cat sat")]
        )
        rated = build_batch(pairs, vocab, ratings=[0.8, -0.3, 0.1])
        signals = build_batch(pairs, vocab, signal_targets=signal_targets_for(params.tasks, 3, seed=6))
        assert rated.mask.sum(axis=1).tolist() == [12, 5, 8]
        assert max_relative_fd_error(params, rated) < 1e-4
        assert max_relative_fd_error(params, signals) < 1e-4

    @staticmethod
    def random_batches(rng, lengths, vocab_size, tasks):
        """A rated batch and a batch of signal targets over the same random rows."""
        width = max(lengths)
        ids = np.zeros((len(lengths), width), dtype=np.int64)
        segments = np.zeros_like(ids)
        mask = np.zeros((len(lengths), width))
        for i, n in enumerate(lengths):
            ids[i, :n] = rng.integers(2, vocab_size, n)
            segments[i, n // 2 : n] = 1
            mask[i, :n] = 1.0
        rated = Batch(ids, segments, mask, ratings=rng.normal(size=len(lengths)))
        targets = signal_targets_for(tasks, len(lengths), seed=int(rng.integers(100)))
        return rated, Batch(ids, segments, mask, signal_targets=targets)

    @NO_DROPOUT
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_bitwise_equal_to_full_width_oracle(self, n_layers, dropout):
        config = EncoderConfig(
            vocab_size=60, d_model=32, n_layers=n_layers, n_heads=4, d_ff=64, max_seq_len=64,
            init_seed=n_layers,
        )
        params = init_model(config)
        rng = np.random.default_rng(n_layers)
        # Widths below and above the sizes where BLAS switches kernels.
        batches = [[3, 3], [12, 5, 9], [34, *rng.integers(3, 34, 31)], [61, 20, 7, 40]]
        # Attention runs in blocks of `block` examples at width 40: batches of
        # 1, block - 1, block, block + 1 and 2 * block + 3 examples, the last
        # with a first block that has no padding.
        width = 40
        block = _attention_blocks(1000, config.n_heads, width, width)[0].stop
        short = np.random.default_rng(100 + n_layers)
        for n in (1, block - 1, block, block + 1):
            batches.append([width, *short.integers(3, width, n - 1)])
        batches.append([width] * block + [*short.integers(3, width, block + 3)])
        for lengths in batches:
            self.assert_equal_to_oracle(params, rng, lengths)

    @NO_DROPOUT
    @pytest.mark.parametrize("budget", [1, 8 * 4 * 2 * 40 * 3])
    def test_small_blocks_equal_the_oracle(self, monkeypatch, budget, dropout):
        """Blocks far smaller than the real budget's, in every layer.

        A 1-byte budget makes every block one example; the other fits three
        examples of the last layer's (h, 2, 40) weights and one example of
        the other layers'.  Every tensor is perturbed, so that no two layer
        norms share their parameters.
        """
        monkeypatch.setattr("pairscore.encoder._ATTENTION_BLOCK_BYTES", budget)
        config = EncoderConfig(
            vocab_size=60, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64,
            init_seed=5,
        )
        params = init_model(config)
        rng = np.random.default_rng(5)
        for arr in params.tensors.values():
            arr += rng.normal(0.0, 0.05, arr.shape)
        for lengths in ([9], [12, 5, 9], [20, 20, 20], [40, 40, *rng.integers(3, 40, 5)]):
            self.assert_equal_to_oracle(params, rng, lengths)

    def assert_equal_to_oracle(self, params, rng, lengths):
        """Forward outputs, losses and gradients on a random batch of ``lengths`` equal the oracle's, with ``==``."""
        rated, signals = self.random_batches(rng, lengths, params.config.vocab_size, params.tasks)
        fwd = forward(params, rated)
        cls, task_outputs, ratings, _ = reference_forward(params, rated)
        np.testing.assert_array_equal(fwd.cls, cls)
        np.testing.assert_array_equal(fwd.ratings, ratings)
        for name, out in task_outputs.items():
            np.testing.assert_array_equal(fwd.task_outputs[name], out)
        for batch, spec in ((rated, "supervised"), (signals, params.tasks)):
            loss, grads = gradients(params, batch)
            want_loss, want = reference_gradients(params, batch, spec)
            assert loss == want_loss
            assert set(grads) == set(want)
            for name in want:
                np.testing.assert_array_equal(grads[name], want[name], err_msg=name)


def softmax_expression(scores, key_mask, queries):
    """``_attention_softmax`` written out: gather, exp(rows - max), key mask, normalize, scatter into zeros."""
    if queries is None:
        rows = scores
    else:
        rows, key_mask = scores[queries[0], :, queries[1]], key_mask[queries[0], 0]
    e = np.exp(rows - rows.max(axis=-1, keepdims=True))
    if key_mask is not None:
        e = e * key_mask
    e = e / e.sum(axis=-1, keepdims=True)
    if queries is None:
        return e
    out = np.zeros_like(scores)
    out[queries[0], :, queries[1]] = e
    return out


class TestInPlaceAttention:
    """The in-place softmax and its gradient against their expression forms, with ``==``."""

    @staticmethod
    def attention_inputs(lengths, rows, seed):
        """Scores (B, 4, rows, T) with the forward pass's key bias, key mask and query indices."""
        rng = np.random.default_rng(seed)
        width = max(lengths)
        mask = np.zeros((len(lengths), width))
        for i, n in enumerate(lengths):
            mask[i, :n] = 1.0
        scores = rng.normal(scale=3.0, size=(len(lengths), 4, rows, width))
        real = _real_rows(mask)
        if real is None:
            return scores, None, None
        scores += (mask - 1.0)[:, None, None, :] * 1e30
        lreal = _real_rows(mask[:, :rows])
        queries = None if lreal is None else np.divmod(lreal, rows)
        return scores, mask[:, None, None, :], queries

    # Padded full width, unpadded, and the last block's two rows of a padded batch.
    CASES = [([12, 5, 9, 12], 12), ([34, *range(3, 34)], 34), ([7, 7, 7], 7), ([12, 5, 9], 2)]

    @pytest.mark.parametrize("lengths, rows", CASES)
    def test_softmax_equals_expression_form(self, lengths, rows):
        scores, key_mask, queries = self.attention_inputs(lengths, rows, seed=rows)
        want = softmax_expression(scores, key_mask, queries)
        got = _attention_softmax(scores, key_mask, queries)
        assert got is scores
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lengths, rows", CASES)
    def test_softmax_backward_equals_expression_form(self, lengths, rows):
        scores, key_mask, queries = self.attention_inputs(lengths, rows, seed=rows + 1)
        attn = _attention_softmax(scores, key_mask, queries)
        dattn = np.random.default_rng(rows).normal(size=attn.shape)
        want = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        got = _attention_softmax_backward(dattn, attn)
        assert got is dattn
        np.testing.assert_array_equal(got, want)


class TestMemory:
    """Traced peak of one step and of inference passes at the pipeline benchmark's model size.

    On these batches (numpy 2.4) the step peaked at 29.8 MB and inference at
    18.0 MB when every layer kept its cache and attention copied its
    (B, h, T, T) arrays, and at 15.0 and 8.9 MB once attention ran in place
    and each array was freed by its last reader; 64 examples, the largest
    batch ``predict`` and validation run, then peaked at 17.5 MB.  With
    attention in blocks of examples, only the real query rows' weights
    cached and the rebuildable activations rebuilt in backward, they peak
    at 10.4, 6.2 and 12.1 MB.  The bounds sit between the last two sets.
    ``predict_ratings`` encodes those 64 examples in calls of at most 1,024
    padded slots, and peaks at 3.3 MB (12.3 MB when it was one call).
    """

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()

    def test_step_and_inference_peaks(self):
        config = EncoderConfig(
            vocab_size=60, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64, init_seed=0
        )
        params = init_model(config)
        rng = np.random.default_rng(0)
        lengths = [60, *rng.integers(8, 60, 31)]
        rated, _ = TestPaddedBatches.random_batches(rng, lengths, config.vocab_size, params.tasks)
        assert rated.ids.shape == (32, 60) and rated.mask.sum() < rated.mask.size
        wide, _ = TestPaddedBatches.random_batches(
            rng, [60, *rng.integers(8, 60, 63)], config.vocab_size, params.tasks
        )
        assert wide.ids.shape == (PREDICT_CHUNK, 60) and wide.mask.sum() < wide.mask.size
        assert self.traced_peak(lambda: gradients(params, rated)) <= 12.5
        assert self.traced_peak(lambda: forward(params, rated)) <= 7.5
        assert self.traced_peak(lambda: forward(params, wide)) <= 14.5

    def test_prediction_peak(self):
        config = EncoderConfig(
            vocab_size=60, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64, init_seed=0
        )
        params = init_model(config)
        vocab = Vocabulary((*RESERVED_TOKENS, *(f"w{i}" for i in range(60 - len(RESERVED_TOKENS)))))
        rng = np.random.default_rng(1)

        def example(width):
            words = [vocab.tokens[i] for i in rng.integers(len(RESERVED_TOKENS), len(vocab), width - 3)]
            half = len(words) // 2
            pair = SentencePair(TokenSeq.from_tokens(words[:half], vocab), TokenSeq.from_tokens(words[half:], vocab))
            return RatedExample(pair, 0.0, "s")

        examples = [example(60), *(example(int(w)) for w in rng.integers(8, 60, PREDICT_CHUNK - 1))]
        predict_ratings(params, examples, vocab)  # the allocator's first touch
        assert self.traced_peak(lambda: predict_ratings(params, examples, vocab)) <= 6.0


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_config, tmp_path):
        params = init_model(tiny_config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, meta={"config_hash": "cafe"})
        loaded, meta = load_checkpoint(path)
        assert meta["config_hash"] == "cafe"
        assert loaded.config == params.config
        assert loaded.tasks == params.tasks
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_save_is_deterministic(self, tiny_config, tmp_path):
        params = init_model(tiny_config)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_config_validation(self):
        with pytest.raises(DataError):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)
        with pytest.raises(DataError):
            EncoderConfig(vocab_size=10, max_seq_len=2)

    @pytest.mark.parametrize("key", ["d_model", "n_layers", "n_heads", "d_ff"])
    def test_shape_below_one_rejected(self, key):
        for value in (0, -1):
            with pytest.raises(DataError, match=f"{key} must be >= 1"):
                EncoderConfig(vocab_size=10, **{key: value})
