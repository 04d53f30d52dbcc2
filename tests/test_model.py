"""Tests for the toy transformer: forward, taps, adapter gradients, checkpoints."""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from helpers import (
    assert_same_forward,
    assert_same_trajectory,
    batched_forward,
    reference_forward,
    same_bits,
)

from editstop.errors import (
    BadMagicError,
    ChecksumMismatchError,
    EmptyInputError,
    NoRecordedGraphError,
    TruncatedFileError,
    VocabOverflowError,
)
from editstop import model as model_module
from editstop.capture import EvolutionVector, build_subspace
from editstop.generate import PolicyConfig, generate
from editstop.metaformat import write_framed
from editstop.model import (
    CKPT_MAGIC,
    CKPT_VERSION,
    ModelConfig,
    TapSpec,
    ToyModel,
    backward_lora,
    forward,
    forward_weights,
    init_model,
    load_checkpoint,
    masked_cross_entropy,
    module_path,
    predictive_distributions,
    save_checkpoint,
)
from editstop.pseudograd import PseudoGradConfig, pseudo_gradient

TINY = ModelConfig(
    vocab_size=12,
    d_model=16,
    n_heads=2,
    n_blocks=2,
    lora_rank=3,
    block_length=4,
    max_blocks=2,
    seed=3,
)


def tiny_model(seed=3):
    return init_model(ModelConfig(**{**TINY.to_json_dict(), "seed": seed}))


def randomize_lora(model, rng, scale=0.1):
    for key in sorted(model.lora):
        model.lora[key] = rng.normal(size=model.lora[key].shape) * scale


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.head_dim == 16
        assert cfg.mask_id == 63
        assert cfg.max_positions == 64
        assert cfg.content_dims == 48

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_model": 65},
            {"n_heads": 0},
            {"lora_rank": 0},
            {"block_length": 1},
            {"vocab_size": 2},
            {"d_model": 8, "n_heads": 4},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestForward:
    def test_all_mask_input_gives_finite_logits(self):
        model = tiny_model()
        tokens = np.full((1, 8), TINY.mask_id)
        res = forward(model, tokens)
        assert res.logits.shape == (1, 8, TINY.vocab_size)
        assert np.all(np.isfinite(res.logits))

    def test_zeroed_b_adapters_match_base_model(self):
        # B starts at zero, so scrambling every A must not move the output.
        model = tiny_model()
        tokens = np.array([[1, 2, 3, 4, 5, 6, 0, 7]])
        before = forward(model, tokens).logits
        for key in model.lora:
            if key.endswith("lora_a"):
                model.lora[key] = model.lora[key] + 10.0
        after = forward(model, tokens).logits
        np.testing.assert_array_equal(before, after)

    def test_deterministic_bit_identical(self):
        tokens = np.array([[3, 1, 4, 1, 5, 9, 2, 6]])
        a = forward(tiny_model(), tokens).logits
        b = forward(tiny_model(), tokens).logits
        assert a.tobytes() == b.tobytes()

    def test_one_dim_input_promoted(self):
        res = forward(tiny_model(), np.array([1, 2, 3]))
        assert res.logits.shape == (1, 3, TINY.vocab_size)

    def test_vocab_overflow_rejected(self):
        with pytest.raises(VocabOverflowError):
            forward(tiny_model(), np.array([[0, TINY.vocab_size]]))

    def test_too_long_sequence_rejected(self):
        with pytest.raises(ValueError):
            forward(tiny_model(), np.zeros((1, TINY.max_positions + 1), dtype=int))

    def test_mask_token_never_wins_readout(self):
        model = tiny_model()
        tokens = np.full((1, 8), TINY.mask_id)
        logits = forward(model, tokens).logits[0]
        assert np.all(logits.argmax(axis=-1) != TINY.mask_id)


class TestTaps:
    def test_branch_tap_zero_at_init(self):
        model = tiny_model()
        spec = TapSpec(module_path(1, "q"))
        res = forward(model, np.array([[1, 2, 3]]), taps=(spec,))
        np.testing.assert_array_equal(res.taps[spec], 0.0)

    def test_full_tap_matches_manual_projection(self):
        model = tiny_model()
        randomize_lora(model, np.random.default_rng(0))
        branch_spec = TapSpec(module_path(0, "k"))
        tokens = np.array([[5, 6, 7, 8]])
        res = forward(model, tokens, taps=(branch_spec,))
        x = model.base["emb_tok"][tokens] + model.base["emb_pos"][:4][None]
        a = model.lora["block0.k.lora_a"]
        b = model.lora["block0.k.lora_b"]
        expect_branch = (x @ a.T) @ b.T
        np.testing.assert_allclose(res.taps[branch_spec], expect_branch, atol=1e-12)

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            TapSpec("block0.z")
        with pytest.raises(ValueError):
            forward(tiny_model(), np.array([[1]]), taps=(TapSpec("block9.q"),))


class TestFirstRow:
    """``forward(first_row=k)`` against the rows ``k:`` of the full pass.

    Only the last layer's query side runs on fewer rows, so the two agree
    to rounding: over 20 adapter draws, three lengths and three cut rows
    the largest gap seen was 5.3e-15 on logits and 1.8e-15 on taps (on a
    trained default model, 8.3e-14 on logits over 300 inputs).
    """

    TAPS = tuple(TapSpec(module_path(b, proj)) for b in range(2) for proj in ("q", "k", "v"))

    @pytest.mark.parametrize("t", [32, 48, 64])
    def test_matches_the_full_pass_rows(self, t):
        cfg = ModelConfig()
        rng = np.random.default_rng(t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, t))
        full = forward(model, tokens, taps=self.TAPS)
        for k in (1, t - cfg.block_length, t - 1):
            part = forward(model, tokens, taps=self.TAPS, first_row=k)
            assert part.logits.shape == (2, t - k, cfg.vocab_size)
            np.testing.assert_allclose(part.logits, full.logits[:, k:], rtol=0, atol=1e-12)
            for spec in self.TAPS:
                assert part.taps[spec].shape == (2, t - k, cfg.d_model)
                np.testing.assert_allclose(
                    part.taps[spec], full.taps[spec][:, k:], rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("t, first_row", [(32, 16), (64, 48)])
    def test_recorded_backward_matches_the_full_pass(self, t, first_row):
        # The block-row backward leaves out only rows whose logit gradient
        # is zero, so every adapter of both blocks matches to rounding.
        cfg = ModelConfig()
        rng = np.random.default_rng(t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, t))
        part = forward(model, tokens, record=True, first_row=first_row)
        assert np.array_equal(part.logits, forward(model, tokens, first_row=first_row).logits)
        full = forward(model, tokens, record=True)
        dlogits = rng.normal(size=part.logits.shape)
        full_dlogits = np.zeros_like(full.logits)
        full_dlogits[:, first_row:] = dlogits
        want = backward_lora(model, full, full_dlogits)
        got = backward_lora(model, part, dlogits)
        assert list(got) == list(want) and len(got) == 12
        for key in want:
            assert np.any(want[key] != 0.0), key
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("first_row", [-1, 4])
    def test_out_of_range_rejected(self, first_row):
        with pytest.raises(ValueError):
            forward(tiny_model(), np.array([[1, 2, 3, 4]]), first_row=first_row)


SIX_TAPS = tuple(TapSpec(module_path(b, proj)) for b in range(2) for proj in ("q", "k", "v"))


def assert_close_grads(got: dict, want: dict) -> None:
    """Every adapter key, within 1e-10 of that key's largest entry."""
    assert list(got) == list(want)
    for key in want:
        bound = 1e-10 * max(float(np.abs(want[key]).max()), 1e-300)
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=bound, err_msg=key)


class TestInPlaceForward:
    """``forward`` runs on the folded weights with attention and the MLP in
    place; it must match the factored, out-of-place
    ``helpers.reference_forward`` to rounding, and its inputs to the first
    projection (``tokens``, block 0's ``x_in`` and ``ax_*``) exactly."""

    @pytest.mark.parametrize(
        "n, t, first_row, record",
        [(1, 32, 16, False), (1, 48, 32, True), (1, 64, 48, True), (2, 64, 0, True),
         (16, 32, 0, True)],  # the last: a batch as sft_train runs it
    )
    def test_matches_the_out_of_place_pass(self, n, t, first_row, record):
        cfg = ModelConfig()
        rng = np.random.default_rng(t + n)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(n, t))
        taps = () if n == 16 else SIX_TAPS
        got = forward(model, tokens, taps=taps, record=record, first_row=first_row)
        want = reference_forward(model, tokens, taps=taps, record=record, first_row=first_row)
        np.testing.assert_allclose(got.logits, want.logits, rtol=0, atol=1e-12)
        assert list(got.taps) == list(want.taps)
        for spec in taps:
            assert got.taps[spec].shape == want.taps[spec].shape
            np.testing.assert_allclose(
                got.taps[spec], want.taps[spec], rtol=0, atol=1e-12, err_msg=spec.module
            )
        if not record:
            assert got.cache is None and want.cache is None
            return
        assert same_bits(got.cache["tokens"], want.cache["tokens"])
        blocks = zip(got.cache["blocks"], want.cache["blocks"], strict=True)
        for b, (mine, theirs) in enumerate(blocks):
            assert sorted(mine) == sorted(theirs)
            for key in theirs:
                if b == 0 and (key == "x_in" or key.startswith("ax_")):
                    assert same_bits(mine[key], theirs[key]), (b, key)
                else:
                    assert mine[key].shape == theirs[key].shape, (b, key)
                    np.testing.assert_allclose(
                        mine[key], theirs[key], rtol=0, atol=1e-12, err_msg=f"{b} {key}"
                    )
        dlogits = rng.normal(size=want.logits.shape)
        assert_close_grads(backward_lora(model, got, dlogits), backward_lora(model, want, dlogits))


class TestTwoDimensionalGemms:
    """``forward`` and ``backward_lora`` run every GEMM of a batch of several
    samples on their 2-D ``(rows, d_model)`` streams, which moves bits:
    training's, while a single-sample decode keeps the bits of plain GEMMs
    over every row."""

    def test_training_batch_matches_per_sample_full_passes(self):
        # sft_train's shape: 16 samples of 32 tokens, loss on rows 16:. The
        # slow path runs each sample alone through the factored reference
        # forward over every row, with a zero gradient on the prompt rows.
        cfg = ModelConfig()
        rng = np.random.default_rng(16)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(16, 32))
        res = forward(model, tokens, record=True, first_row=16)
        dlogits = rng.normal(size=res.logits.shape)
        got = backward_lora(model, res, dlogits)
        want = None
        for i in range(16):
            one = reference_forward(model, tokens[i : i + 1], record=True)
            one_dlogits = np.zeros_like(one.logits)
            one_dlogits[0, 16:] = dlogits[i]
            grads = backward_lora(model, one, one_dlogits)
            want = grads if want is None else {k: want[k] + grads[k] for k in want}
        assert len(got) == 12
        assert_close_grads(got, want)

    @pytest.mark.parametrize("t", [32, 64])
    def test_decode_shapes_keep_the_plain_matmul_bits(self, t):
        # forward_weights lays each operand out for speed: column-major q/k/v
        # stacks, a row-major last Wq, row-major copies of block 0's MLP
        # transposes. At decode shapes a forward on them, passed or built,
        # keeps every bit of one on row-major stacks and plain .T views.
        cfg = ModelConfig()
        rng = np.random.default_rng(200 + t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(1, t))
        kwargs = dict(taps=SIX_TAPS, record=True, first_row=t - 16)
        weights = forward_weights(model)
        qkv = tuple(np.ascontiguousarray(w) for w in weights.qkv)
        plain = dataclasses.replace(
            weights,
            qkv=qkv,
            wq_last=qkv[-1][: cfg.d_model],
            mlp=tuple(
                tuple(model.base[f"block{b}.{name}"].T for name in ("wo", "w1", "w2"))
                for b in range(cfg.n_blocks)
            ),
        )
        want = forward(model, tokens, weights=plain, **kwargs)
        assert_same_forward(forward(model, tokens, weights=weights, **kwargs), want)
        assert_same_forward(forward(model, tokens, **kwargs), want)


class TestTwoDimensionalForward:
    """``forward`` keeps its residual stream as one 2-D ``(N * T, d)``
    array; it must keep every bit of the batched formulation it replaced
    (``helpers.batched_forward``): a decode's single sample and training's
    batch alike."""

    @pytest.mark.parametrize("t", [32, 48, 64])
    @pytest.mark.parametrize("record", [False, True])
    def test_decode_forward_keeps_the_batched_bits(self, t, record):
        cfg = ModelConfig()
        rng = np.random.default_rng(300 + t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(1, t))
        tap = model.default_tap()
        got = forward(model, tokens, taps=(tap,), record=record, first_row=t - 16)
        want = batched_forward(model, tokens, taps=(tap,), record=record, first_row=t - 16)
        assert got.logits.shape == (1, 16, cfg.vocab_size)
        assert_same_forward(got, want)

    def test_training_batch_keeps_the_batched_bits(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(316)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(16, 32))
        got = forward(model, tokens, record=True, first_row=16)
        want = batched_forward(model, tokens, record=True, first_row=16)
        assert got.logits.shape == (16, 16, cfg.vocab_size)
        assert_same_forward(got, want)

    @pytest.mark.parametrize("n, t, first_row", [(1, 32, 16), (1, 64, 48), (16, 32, 16)])
    def test_stack_layout_keeps_the_bits(self, n, t, first_row):
        # forward_weights stores its q/k/v stacks column-major for speed; a
        # row-major copy of the same stacks gives every bit back.
        cfg = ModelConfig()
        rng = np.random.default_rng(318 + t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        weights = forward_weights(model)
        assert all(w.flags.f_contiguous for w in weights.qkv)
        tokens = rng.integers(0, cfg.vocab_size, size=(n, t))
        row_major = tuple(np.ascontiguousarray(w) for w in weights.qkv)
        kwargs = dict(taps=SIX_TAPS, record=True, first_row=first_row)
        assert_same_forward(
            forward(model, tokens, weights=weights, **kwargs),
            forward(model, tokens, weights=dataclasses.replace(weights, qkv=row_major), **kwargs),
        )

    @pytest.mark.parametrize("rows", [32, 48, 64, 512])
    def test_row_major_mlp_copies_keep_the_view_bits(self, rows):
        # Layer 0 runs its Wo/W1/W2 GEMMs over every row (32 to 64 in a
        # decode, 512 in training) on row-major copies of the transposes;
        # they give the .T views' bits. The last layer's 16-row GEMMs,
        # whose bits a copy moves, read the views themselves.
        cfg = ModelConfig()
        rng = np.random.default_rng(400 + rows)
        model = init_model(cfg)
        weights = forward_weights(model)
        last = cfg.n_blocks - 1
        for i, name in enumerate(("wo", "w1", "w2")):
            base = model.base[f"block0.{name}"]
            copy = weights.mlp[0][i]
            assert copy.flags.c_contiguous and not np.shares_memory(copy, base)
            x = rng.normal(size=(rows, base.shape[1]))
            assert same_bits(x @ copy, x @ base.T), name
            view = weights.mlp[last][i]
            assert view.base is model.base[f"block{last}.{name}"] and view.flags.f_contiguous

    def test_every_tap_of_a_batch_keeps_the_batched_bits(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(317)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(16, 32))
        for first_row in (0, 5, 16):
            got = forward(model, tokens, taps=SIX_TAPS, record=True, first_row=first_row)
            want = batched_forward(model, tokens, taps=SIX_TAPS, record=True, first_row=first_row)
            assert_same_forward(got, want)


class TestMergedProjections:
    """The folded-weight forward against the factored reference: the same
    network with ``B @ A`` folded into ``W``, so equal to rounding."""

    def test_stacks_the_folded_weights(self):
        model = tiny_model()
        randomize_lora(model, np.random.default_rng(0), scale=0.3)
        merged = forward_weights(model).qkv
        d = TINY.d_model
        assert len(merged) == TINY.n_blocks
        for b, stack in enumerate(merged):
            assert stack.shape == (3 * d, d)
            for i, proj in enumerate(("q", "k", "v")):
                lora_a, lora_b = (model.lora[f"block{b}.{proj}.lora_{ad}"] for ad in ("a", "b"))
                want = model.base[f"block{b}.w{proj}"] + lora_b @ lora_a
                assert same_bits(stack[i * d : (i + 1) * d], want)

    @pytest.mark.parametrize("t", [32, 48, 64])
    def test_matches_the_factored_pass(self, t):
        cfg = ModelConfig()
        rng = np.random.default_rng(100 + t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        weights = forward_weights(model)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, t))
        for first_row in (0, 1, t - cfg.block_length, t - 1):
            want = reference_forward(
                model, tokens, taps=SIX_TAPS, record=True, first_row=first_row
            )
            got = forward(
                model, tokens, taps=SIX_TAPS, record=True, first_row=first_row, weights=weights
            )
            np.testing.assert_allclose(got.logits, want.logits, rtol=0, atol=1e-12)
            for spec in SIX_TAPS:
                assert got.taps[spec].shape == want.taps[spec].shape
                np.testing.assert_allclose(
                    got.taps[spec], want.taps[spec], rtol=0, atol=1e-12, err_msg=spec.module
                )
            dlogits = rng.normal(size=want.logits.shape)
            want_grads = backward_lora(model, want, dlogits)
            got_grads = backward_lora(model, got, dlogits)
            assert list(got_grads) == list(want_grads) and len(got_grads) == 12
            for key in want_grads:
                np.testing.assert_allclose(
                    got_grads[key], want_grads[key], rtol=0, atol=1e-12, err_msg=key
                )

    @pytest.mark.parametrize("n, t, first_row", [(1, 32, 16), (1, 64, 48), (16, 32, 0)])
    def test_built_stack_equals_a_passed_one(self, n, t, first_row):
        """``weights=None`` builds the weights a caller would pass: same bits."""
        cfg = ModelConfig()
        rng = np.random.default_rng(7 + t)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=(n, t))
        built = forward(model, tokens, taps=SIX_TAPS, record=True, first_row=first_row)
        passed = forward(
            model, tokens, taps=SIX_TAPS, record=True, first_row=first_row,
            weights=forward_weights(model),
        )
        assert same_bits(built.logits, passed.logits)
        for spec in SIX_TAPS:
            assert same_bits(built.taps[spec], passed.taps[spec]), spec.module
        for b, (mine, theirs) in enumerate(zip(built.cache["blocks"], passed.cache["blocks"])):
            assert sorted(mine) == sorted(theirs)
            for key in theirs:
                assert same_bits(mine[key], theirs[key]), (b, key)

    @pytest.mark.parametrize("cut", ["short", "wide"])
    def test_wrong_stack_rejected(self, cut):
        weights = forward_weights(tiny_model())
        merged = weights.qkv
        bad = merged[:1] if cut == "short" else tuple(np.hstack([w, w]) for w in merged)
        with pytest.raises(ValueError):
            forward(tiny_model(), np.array([[1, 2]]), weights=dataclasses.replace(weights, qkv=bad))


class TestMaskedCrossEntropy:
    def test_hand_arithmetic(self):
        # Two positions, one masked. Softmax over 3 logits (0, ln2, 0):
        # p = (0.25, 0.5, 0.25); target class 1 -> loss = ln 2.
        logits = np.array([[[0.0, np.log(2.0), 0.0], [5.0, 0.0, 0.0]]])
        targets = np.array([[1, 0]])
        mask = np.array([[True, False]])
        loss, dlogits = masked_cross_entropy(logits, targets, mask)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(dlogits[0, 0], [0.25, -0.5, 0.25], rtol=1e-12)
        np.testing.assert_array_equal(dlogits[0, 1], 0.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_cross_entropy(
                np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=int), np.zeros((1, 2), bool)
            )

    def test_predictive_distributions_exclude_mask(self):
        rows = predictive_distributions(np.zeros((2, 5)), vocab_size=5)
        assert rows.shape == (2, 4)
        np.testing.assert_allclose(rows, 0.25, rtol=1e-12)


class TestBackward:
    def loss_fn(self, model, tokens, targets, mask):
        res = forward(model, tokens, taps=(), record=True)
        loss, dlogits = masked_cross_entropy(res.logits, targets, mask)
        return res, loss, dlogits

    def test_requires_recorded_graph(self):
        model = tiny_model()
        res = forward(model, np.array([[1, 2]]))
        with pytest.raises(NoRecordedGraphError):
            backward_lora(model, res, np.zeros_like(res.logits))

    @pytest.mark.parametrize("keys", [[], ()])
    def test_empty_keys_rejected(self, keys):
        model = tiny_model()
        res = forward(model, np.array([[1, 2]]), record=True)
        with pytest.raises(EmptyInputError, match="at least one adapter key"):
            backward_lora(model, res, np.zeros_like(res.logits), keys=keys)

    def test_linearity_in_dlogits(self):
        model = tiny_model()
        randomize_lora(model, np.random.default_rng(1))
        res = forward(model, np.array([[1, 2, 3, 4]]), record=True)
        d = np.random.default_rng(2).normal(size=res.logits.shape)
        g1 = backward_lora(model, res, d)
        g2 = backward_lora(model, res, 2.0 * d)
        for key in g1:
            np.testing.assert_allclose(g2[key], 2.0 * g1[key], rtol=1e-10, atol=1e-14)

    def test_leaves_the_recorded_cache_untouched(self):
        # The reverse pass works in place on its own arrays only: pseudograd
        # runs it more than once on one recorded forward.
        cfg = ModelConfig()
        rng = np.random.default_rng(17)
        model = init_model(cfg)
        randomize_lora(model, rng, scale=0.3)
        res = forward(model, rng.integers(0, cfg.vocab_size, size=(16, 32)),
                      record=True, first_row=16)
        dlogits = rng.normal(size=res.logits.shape)
        blocks = res.cache["blocks"]
        before = [{name: arr.copy() for name, arr in c.items()} for c in blocks]
        tokens = res.cache["tokens"].copy()
        first = backward_lora(model, res, dlogits)
        second = backward_lora(model, res, dlogits)
        assert same_bits(res.cache["tokens"], tokens)
        assert [list(c) for c in blocks] == [list(c) for c in before]
        for c, kept in zip(blocks, before):
            for name, arr in kept.items():
                assert same_bits(c[name], arr), name
        assert list(first) == list(second)
        for key in first:
            assert same_bits(first[key], second[key]), key

    def test_finite_difference_agreement(self):
        # Central differences at step 1e-5 on >= 50 random coordinates
        # spanning every adapter tensor of a 2-layer model.
        model = tiny_model()
        rng = np.random.default_rng(7)
        randomize_lora(model, rng)
        tokens = np.array([[1, 2, 3, 4, 11, 11, 11, 11]])
        targets = np.array([[1, 2, 3, 4, 4, 3, 2, 1]])
        mask = np.array([[False] * 4 + [True] * 4])
        res, _, dlogits = self.loss_fn(model, tokens, targets, mask)
        grads = backward_lora(model, res, dlogits)
        step = 1e-5
        checked = 0
        for key in sorted(model.lora):
            flat = model.lora[key].reshape(-1)
            idx = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + step
                _, up, _ = self.loss_fn(model, tokens, targets, mask)
                flat[i] = orig - step
                _, down, _ = self.loss_fn(model, tokens, targets, mask)
                flat[i] = orig
                fd = (up - down) / (2.0 * step)
                an = grads[key].reshape(-1)[i]
                assert an == pytest.approx(fd, rel=1e-4, abs=1e-8), key
                checked += 1
        assert checked >= 50

    def test_near_perfect_logits_give_small_gradients(self):
        model = tiny_model()
        res = forward(model, np.array([[1, 2]]), record=True)
        # A uniform logit offset is softmax-invariant; the CE gradient of
        # a peaked correct prediction is ~0, so adapter gradients are ~0.
        huge = np.zeros_like(res.logits)
        huge[..., 3] = 50.0
        loss, dlogits = masked_cross_entropy(
            huge, np.full((1, 2), 3), np.ones((1, 2), bool)
        )
        assert loss < 1e-12
        grads = backward_lora(model, res, dlogits)
        for key, g in grads.items():
            assert np.abs(g).max() < 1e-12, key


class TestSelectedBackward:
    """``backward_lora(keys=...)`` against the full reverse pass, bit for bit."""

    def recorded(self, cfg=TINY):
        model = init_model(cfg)
        randomize_lora(model, np.random.default_rng(21))
        tokens = np.random.default_rng(22).integers(0, cfg.vocab_size, size=(2, 8))
        res = forward(model, tokens, taps=(), record=True)
        dlogits = np.random.default_rng(23).normal(size=res.logits.shape)
        return model, res, dlogits

    @pytest.mark.parametrize("key", sorted(init_model(TINY).lora))
    def test_each_key_alone_matches_the_full_pass(self, key):
        model, res, dlogits = self.recorded()
        full = backward_lora(model, res, dlogits)
        got = backward_lora(model, res, dlogits, keys={key})
        assert list(got) == [key]
        assert np.array_equal(got[key], full[key])
        assert np.any(full[key] != 0.0)

    @pytest.mark.parametrize(
        "keys",
        [
            ("block1.q.lora_b", "block0.v.lora_b"),
            ("block0.k.lora_a", "block1.v.lora_a", "block1.q.lora_b"),
            ("block0.q.lora_b", "block0.q.lora_a", "block0.v.lora_b"),
        ],
    )
    def test_key_sets_match_the_full_pass(self, keys):
        model, res, dlogits = self.recorded()
        full = backward_lora(model, res, dlogits)
        got = backward_lora(model, res, dlogits, keys=keys)
        assert list(got) == list(keys)
        for key in keys:
            assert np.array_equal(got[key], full[key]), key

    def test_three_blocks(self):
        cfg = ModelConfig(**{**TINY.to_json_dict(), "n_blocks": 3})
        model, res, dlogits = self.recorded(cfg)
        full = backward_lora(model, res, dlogits)
        assert backward_lora(model, res, dlogits).keys() == full.keys()
        for key in ("block1.v.lora_b", "block0.k.lora_a", "block2.q.lora_b"):
            got = backward_lora(model, res, dlogits, keys=(key,))
            assert np.array_equal(got[key], full[key]), key

    def test_default_key_stops_at_its_query(self):
        # The default pseudo-gradient key reads the last block's attention
        # down to dq: no block 0, no dk (which reads q), no dv branch into
        # the stream, no adapter-A gradient (which reads x_in).
        model, res, dlogits = self.recorded()
        full = backward_lora(model, res, dlogits)["block1.q.lora_b"]
        blocks = res.cache["blocks"]
        kept = ("t1", "attn", "v", "k", "ax_q")
        blocks[:] = [None, {name: blocks[1][name] for name in kept}]
        got = backward_lora(model, res, dlogits, keys=("block1.q.lora_b",))
        assert np.array_equal(got["block1.q.lora_b"], full)

    def test_unknown_key_rejected(self):
        model, res, dlogits = self.recorded()
        with pytest.raises(KeyError):
            backward_lora(model, res, dlogits, keys=("block0.z.lora_b",))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = tiny_model()
        randomize_lora(model, np.random.default_rng(3))
        path = tmp_path / "model.editckpt"
        blob = save_checkpoint(model, path)
        assert path.read_bytes() == blob
        loaded = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        for key in model.base:
            np.testing.assert_array_equal(loaded.base[key], model.base[key])
        for key in model.lora:
            np.testing.assert_array_equal(loaded.lora[key], model.lora[key])
        assert save_checkpoint(loaded, None) == blob

    def test_save_deterministic(self, tmp_path):
        a = save_checkpoint(tiny_model(), None)
        b = save_checkpoint(tiny_model(), None)
        assert a == b

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.editckpt"
        blob = bytearray(save_checkpoint(tiny_model(), path))
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.editckpt"
        blob = save_checkpoint(tiny_model(), path)
        path.write_bytes(blob[:10])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_parameter_name_that_is_not_utf8_is_refused(self, tmp_path):
        # A validly framed checkpoint whose first parameter name starts with 0xff.
        path = tmp_path / "m.editckpt"
        body = bytearray(save_checkpoint(tiny_model(), None)[len(CKPT_MAGIC) + 2 : -4])
        first_name = 4 + struct.unpack_from("<I", body)[0] + 2 + 2
        body[first_name] = 0xFF
        write_framed(path, CKPT_MAGIC, CKPT_VERSION, bytes(body))
        with pytest.raises(TruncatedFileError, match="is not UTF-8"):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "m.editckpt"
        blob = save_checkpoint(tiny_model(), path)
        path.write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(BadMagicError):
            load_checkpoint(path)


class TestStructuredInit:
    def test_base_identical_across_instances(self):
        def same_base(one, two):
            return sorted(one.base) == sorted(two.base) and all(
                np.array_equal(one.base[k], two.base[k]) for k in one.base
            )

        assert same_base(tiny_model(), tiny_model())
        assert not same_base(tiny_model(), tiny_model(seed=4))

    def test_position_dims_never_written_by_blocks(self):
        cfg = ModelConfig()
        model = init_model(cfg)
        pos0 = cfg.content_dims
        for b in range(cfg.n_blocks):
            assert np.all(model.base[f"block{b}.wo"][pos0:] == 0.0)
            assert np.all(model.base[f"block{b}.w2"][pos0:] == 0.0)

    def test_mask_embedding_has_no_content(self):
        cfg = ModelConfig()
        model = init_model(cfg)
        assert np.all(model.base["emb_tok"][cfg.mask_id] == 0.0)
        assert np.all(model.base["head"][cfg.mask_id] == 0.0)


class TestLoadedWeightsCache:
    """``forward_weights`` builds a loaded model's weights once, keyed by
    its parameter arrays, and builds a writable model's on every call."""

    @staticmethod
    def loaded(tmp_path, cfg=None, seed=0):
        model = init_model(cfg if cfg is not None else ModelConfig())
        randomize_lora(model, np.random.default_rng(seed), scale=0.3)
        path = tmp_path / "m.editckpt"
        save_checkpoint(model, path)
        return load_checkpoint(path)

    @staticmethod
    def count_builds(monkeypatch) -> list:
        built = []
        real = model_module.ForwardWeights

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(model_module, "ForwardWeights", counting)
        return built

    @staticmethod
    def read_only(weights) -> bool:
        arrays = (*weights.qkv, weights.wq_last, *(a for layer in weights.mlp for a in layer))
        return not any(a.flags.writeable for a in arrays)

    @staticmethod
    def same_weights(got, want) -> bool:
        return (
            all(map(same_bits, got.qkv, want.qkv))
            and same_bits(got.wq_last, want.wq_last)
            and all(same_bits(g, w) for gl, wl in zip(got.mlp, want.mlp) for g, w in zip(gl, wl))
        )

    def test_loaded_model_builds_once_and_refuses_writes(self, tmp_path, monkeypatch):
        model = self.loaded(tmp_path)
        built = self.count_builds(monkeypatch)
        cfg = model.cfg
        rng = np.random.default_rng(1)
        vector = EvolutionVector(u=np.abs(rng.normal(size=cfg.d_model)), module_id="m", rank=4)
        prompt = rng.integers(0, cfg.vocab_size - 1, size=cfg.block_length)
        weights = forward_weights(model)
        assert forward_weights(model) is weights
        for _ in range(2):
            run = generate(model, prompt, 32, PolicyConfig("edit"), reasoning_map=vector)
        forward(model, np.concatenate([prompt, prompt]))
        # The pseudo-gradient's own forwards build no weights either.
        pseudo_gradient(model, run.blocks[0].trajectory, 1, PseudoGradConfig())
        assert len(built) == 1
        assert self.read_only(weights)
        key = next(iter(model.lora))
        with pytest.raises(ValueError, match="read-only"):
            model.lora[key][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.base["block0.wo"][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            weights.qkv[0][0, 0] = 1.0
        assert forward_weights(model) is weights

    @pytest.mark.parametrize("key", ["block1.q.lora_b", "block0.v.lora_a", "block0.wk", "block0.w1"])
    def test_replacing_an_array_rebuilds(self, tmp_path, key):
        model = self.loaded(tmp_path)
        old = forward_weights(model)
        params = model.lora if "lora" in key else model.base
        new = params[key] + 0.5
        new.setflags(write=False)
        params[key] = new
        weights = forward_weights(model)
        assert weights is not old and not self.same_weights(weights, old)
        fresh = ToyModel(model.cfg, {k: a.copy() for k, a in model.base.items()},
                         {k: a.copy() for k, a in model.lora.items()})
        assert self.same_weights(weights, forward_weights(fresh))
        assert forward_weights(model) is weights
        # A writable replacement is never cached.
        params[key] = new.copy()
        assert forward_weights(model) is not forward_weights(model)

    def test_changed_in_place_model_gets_fresh_weights(self, monkeypatch):
        model = init_model(ModelConfig())
        built = self.count_builds(monkeypatch)
        first = forward_weights(model)
        assert forward_weights(model) is not first and len(built) == 2
        assert not self.read_only(first)
        for key in ("block0.q.lora_b", "block1.k.lora_b"):
            model.lora[key] += 0.25
        model.base["block0.w2"] *= 2.0
        got = forward_weights(model)
        want = forward_weights(ToyModel(model.cfg, dict(model.base), dict(model.lora)))
        assert not self.same_weights(got, first) and self.same_weights(got, want)
        # The same, made read-only by hand, is cached from then on.
        for arr in (*model.base.values(), *model.lora.values()):
            arr.setflags(write=False)
        assert forward_weights(model) is forward_weights(model)

    @pytest.mark.parametrize("kind", ["fixed", "edit", "edit_freeze"])
    def test_loaded_and_writable_decodes_agree_bit_for_bit(self, tmp_path, kind):
        model = self.loaded(tmp_path, seed=2)
        writable = ToyModel(model.cfg, {k: a.copy() for k, a in model.base.items()},
                            {k: a.copy() for k, a in model.lora.items()})
        cfg = model.cfg
        rng = np.random.default_rng(3)
        vector = EvolutionVector(u=np.abs(rng.normal(size=cfg.d_model)), module_id="m", rank=4)
        basis = build_subspace(rng.normal(size=(cfg.d_model, 6)), 3, "m")
        for _ in range(3):
            prompt = rng.integers(0, cfg.vocab_size - 1, size=cfg.block_length)
            got, want = (
                generate(m, prompt, 64, PolicyConfig(kind), reasoning_map=vector,
                         freeze_basis=basis, record=True)
                for m in (model, writable)
            )
            assert (got.tokens, got.block_steps) == (want.tokens, want.block_steps)
            for gb, wb in zip(got.blocks, want.blocks, strict=True):
                assert gb.certificate == wb.certificate
                if kind != "fixed":
                    trace = [(r.step, repr(r.divergence)) for r in gb.monitor.divergence_trace]
                    assert trace == [(r.step, repr(r.divergence))
                                     for r in wb.monitor.divergence_trace]
                for g, w in zip(gb.freeze_events, wb.freeze_events, strict=True):
                    assert (g.token, g.frozen_at, g.epsilon_s) == (w.token, w.frozen_at, w.epsilon_s)
                    assert same_bits(g.frozen_value, w.frozen_value)
                assert_same_trajectory(gb.trajectory, wb.trajectory)
                if kind != "fixed":
                    assert same_bits(gb.monitor.prev_probs, wb.monitor.prev_probs)
                    assert gb.monitor.prev_members == wb.monitor.prev_members
                for g, w in zip(gb.trajectory.forwards, wb.trajectory.forwards, strict=True):
                    assert_same_forward(g, w)
