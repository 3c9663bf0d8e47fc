import copy
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spin_infer import engine as engine_module
from spin_infer.engine import Engine, MultimodalPrompt, _plan, _rope, _softmax, gelu, rmsnorm
from spin_infer.errors import ConfigError, ContextOverflowError, DataError
from spin_infer.model import ModelConfig, init_checkpoint, load_checkpoint, save_checkpoint
from spin_infer.spin import MaskTraceWriter, SpinConfig, SpinPolicy

from helpers import (
    copy_cache,
    layer_lengths,
    mutated,
    random_prompt,
    ref_gelu,
    ref_qkv,
    ref_rmsnorm,
    ref_rope_tables,
    reference_prefill,
    reference_step,
    tiny_config,
    tiny_engine,
    traced_peak,
)


@pytest.fixture
def engine():
    return tiny_engine(seed=5)


@pytest.fixture
def prompt(engine):
    return random_prompt(1, engine.config)


def prefill_and_layout(engine, prompt):
    cache = engine.new_cache()
    logits = engine.prefill(prompt, cache)
    return cache, prompt.layout(), logits


class TestPrompt:
    def test_span_indices(self, engine):
        p = random_prompt(0, engine.config, n_prefix=2, n_vision=5, n_suffix=3)
        assert (p.i_start, p.i_end, len(p)) == (2, 7, 10)

    def test_empty_vision_rejected(self):
        with pytest.raises(DataError):
            MultimodalPrompt([1], np.zeros((0, 8), np.float32), [2])

    def test_id_out_of_vocab_rejected(self, engine):
        p = MultimodalPrompt([engine.config.vocab_size], np.zeros((1, 32), np.float32), [])
        with pytest.raises(DataError):
            engine.embed_prompt(p)

    def test_vision_width_mismatch_rejected(self):
        """The engine's own check, for callers that skip the run loader."""
        engine = tiny_engine(d_model=24)
        p = MultimodalPrompt([1], np.zeros((2, 16), np.float32), [2])
        with pytest.raises(DataError, match=r"^vision embedding dim 16 != d_model 24$"):
            engine.embed_prompt(p)

    def test_extended_keeps_span(self, engine):
        p = random_prompt(0, engine.config)
        q = p.extended([1, 2, 3])
        assert (q.i_start, q.i_end) == (p.i_start, p.i_end)
        assert len(q) == len(p) + 3


class TestCache:
    def test_row_accounting(self, engine, prompt):
        cache = engine.new_cache()
        engine.prefill(prompt, cache)
        assert cache.length == len(prompt)
        assert layer_lengths(cache) == (len(prompt),) * engine.config.n_layers
        engine.step([3], cache, prompt.layout())
        assert layer_lengths(cache) == (len(prompt) + 1,) * engine.config.n_layers

    def test_prefill_10_plus_step(self, engine):
        p = random_prompt(2, engine.config, n_prefix=3, n_vision=4, n_suffix=3)
        assert len(p) == 10
        cache = engine.new_cache()
        engine.prefill(p, cache)
        engine.step([1], cache, p.layout())
        assert layer_lengths(cache) == (11,) * engine.config.n_layers

    def test_select_streams_independent_and_prompt_never_copied(self, engine, prompt):
        n = len(prompt)
        layout = prompt.layout()
        cache = engine.new_cache(3)
        engine.prefill(prompt, cache)
        assert not cache.k[:, 1:].any()  # prefill writes stream 0 only
        cache.select([0, 0, 0])  # one parent for all: the prompt is broadcast once
        assert cache.shared == n
        assert all(np.array_equal(cache.k[:, s, :, :n], cache.k[:, 0, :, :n]) for s in (1, 2))
        logits = engine.step([1, 2, 3], cache, layout)
        assert logits.shape == (3, engine.config.vocab_size)
        assert cache.length == n + 1
        # a stream's output depends on its own token only
        other = engine.new_cache(3)
        engine.prefill(prompt, other)
        other.select([0, 0, 0])
        assert np.array_equal(engine.step([1, 5, 7], other, layout)[0], logits[0])
        # select copies rows from the prompt end on: poisoned prompt rows of
        # the parent stream 2 never reach streams 0 and 1
        gen = cache.k[:, :, :, n].copy()
        cache.k[:, 2, :, :n] = np.nan
        cache.select([2, 2, 0])
        assert cache.shared == n
        assert np.isfinite(cache.k[:, :2, :, :n]).all()
        assert np.isnan(cache.k[:, 2, :, :n]).all()
        assert np.array_equal(cache.k[:, :, :, n], gen[:, [2, 2, 0]])

    def test_deep_copy_of_a_slot_steps_like_the_slot(self, engine, prompt):
        """A deep copy of a prefilled slot is a cache of its own: stepped like the slot, it gives the
        slot's logits and rows."""
        slot = engine.new_cache(4).slot(2, 2)
        engine.prefill(prompt, slot)
        slot.select([0, 0])
        twin = copy.deepcopy(slot)
        want = engine.step([1, 2], slot, prompt.layout())
        assert np.array_equal(engine.step([1, 2], twin, prompt.layout()), want)
        assert twin.length == slot.length and np.array_equal(twin.kv, slot.kv)

    def test_overflow(self):
        engine = tiny_engine(max_seq_len=6)
        p = random_prompt(0, engine.config, n_prefix=1, n_vision=2, n_suffix=2)
        cache = engine.new_cache()
        engine.prefill(p, cache)
        engine.step([1], cache, p.layout())
        with pytest.raises(ContextOverflowError):
            engine.step([1], cache, p.layout())

    def test_truncate_lengths_and_shared(self, engine, prompt):
        n = len(prompt)
        layout = prompt.layout()
        cache = engine.new_cache(3)
        engine.prefill(prompt, cache)
        cache.select([0, 0, 0])
        for toks in ([1, 2, 3], [4, 5, 6]):
            engine.step(toks, cache, layout)
        cache.select([1, 1, 1])
        assert cache.shared == n + 2
        cache.truncate(n)
        assert layer_lengths(cache) == (n,) * engine.config.n_layers
        assert cache.shared == n
        cache.truncate(n + 5)  # never grows
        assert cache.length == n

    def test_embed_prompt_from_any_start(self, engine):
        p = random_prompt(6, engine.config, n_prefix=2, n_vision=3, n_suffix=4)
        full = engine.embed_prompt(p)
        for start in range(len(p)):
            assert np.array_equal(engine.embed_prompt(p, start), full[start:])

    @pytest.mark.parametrize("n_streams", [1, 3])
    def test_prefill_onto_prefix_matches_fresh_prefill(self, engine, prompt, n_streams):
        """A prompt prefilled onto a cache holding its first rows (here an
        earlier prompt, decoded on and truncated back) gives the logits a
        new cache's full prefill gives, up to the near-tie tolerance."""
        layout = prompt.layout()
        longer = prompt.extended([7, 8, 9, 10])
        fresh = engine.prefill(longer, engine.new_cache(), return_all_logits=True)
        cache = engine.new_cache(n_streams)
        engine.prefill(prompt, cache)
        cache.select([0] * n_streams)
        engine.step([1, 2, 3][:n_streams], cache, layout)
        cache.select([n_streams - 1] + [0] * (n_streams - 1))
        engine.step([4, 5, 6][:n_streams], cache, layout)
        cache.truncate(len(prompt))
        got = engine.prefill(longer, cache, return_all_logits=True)
        assert got.shape == (4, engine.config.vocab_size)
        assert np.allclose(got, fresh[len(prompt):], atol=1e-4)
        assert cache.length == len(longer)
        # the next select from stream 0 broadcasts the new prompt rows to every stream
        cache.select([0] * n_streams)
        assert cache.shared == len(longer)
        for s in range(1, n_streams):
            assert np.array_equal(cache.k[:, s, :, : len(longer)], cache.k[:, 0, :, : len(longer)])

    def test_prefill_of_empty_cache_unchanged(self, engine, prompt):
        """An empty cache prefills every row at positions 0..n-1, as before."""
        layout = prompt.layout()
        cache = engine.new_cache()
        engine.prefill(prompt, cache)
        engine.step([3], cache, layout)
        cache.truncate(0)
        again = engine.prefill(prompt, cache, return_all_logits=True)
        assert np.array_equal(again, engine.prefill(prompt, engine.new_cache(), return_all_logits=True))

    def test_cache_holding_whole_prompt_rejected(self, engine, prompt):
        cache = engine.new_cache()
        engine.prefill(prompt, cache)
        with pytest.raises(ConfigError, match="nothing to prefill"):
            engine.prefill(prompt, cache)
        engine.step([3], cache, prompt.layout())
        with pytest.raises(ConfigError, match="nothing to prefill"):
            engine.prefill(prompt, cache)

    def test_prompt_longer_than_max_rejected(self):
        engine = tiny_engine(max_seq_len=4)
        p = random_prompt(0, engine.config, n_prefix=1, n_vision=3, n_suffix=2)
        with pytest.raises(ContextOverflowError):
            engine.prefill(p, engine.new_cache())

    def test_overflow_onto_prefix_writes_nothing(self):
        engine = tiny_engine(max_seq_len=8)
        p = random_prompt(0, engine.config, n_prefix=1, n_vision=3, n_suffix=2)
        cache = engine.new_cache()
        engine.prefill(p, cache)
        with pytest.raises(ContextOverflowError):
            engine.prefill(p.extended([1, 2, 3]), cache)
        assert layer_lengths(cache) == (len(p),) * engine.config.n_layers


def fixed_masks(value: float):
    """Mask policy giving every head of every row the same multiplier."""

    def policy(layer, q, keys, logits, positions, layout):
        return np.full((len(positions), q.shape[1]), value, np.float32)

    return policy


class TestAttentionStep:
    def test_identity_mask_bitwise_equal(self, engine, prompt):
        layout = prompt.layout()
        runs = []
        for policy in (None, fixed_masks(1.0)):
            cache = engine.new_cache()
            chain = [engine.prefill(prompt, cache, policy, return_all_logits=True)]
            for tok in (3, 7):
                chain.append(engine.step([tok], cache, layout, policy))
            runs.append(np.concatenate(chain))
        assert np.array_equal(runs[0], runs[1])

    def test_zero_mask_annihilates(self, engine, prompt):
        c = engine.config
        no_wo = Engine(mutated(
            engine.checkpoint,
            {f"layers.{i}.wo": np.zeros((c.d_model, c.d_model), np.float32) for i in range(c.n_layers)}
        ))
        layout = prompt.layout()
        runs = []
        for eng, policy in ((engine, fixed_masks(0.0)), (no_wo, None)):
            cache = eng.new_cache()
            chain = [eng.prefill(prompt, cache, policy, return_all_logits=True)]
            for tok in (3, 7):
                chain.append(eng.step([tok], cache, layout, policy))
            runs.append(np.concatenate(chain))
        assert np.array_equal(runs[0], runs[1])

    def test_single_head_single_token_is_projected_value(self):
        base = tiny_engine(n_heads=1, d_model=8, d_ffn=8, n_layers=1)
        c = base.config
        x = np.linspace(-1, 1, c.d_model).astype(np.float32)
        emb = base.checkpoint["embedding"].copy()
        emb[0] = x
        engine = Engine(mutated(base.checkpoint, {"embedding": emb}))
        ck = engine.checkpoint
        shapes = []
        cache = engine.new_cache()
        layout = MultimodalPrompt([], np.zeros((1, c.d_model), np.float32), []).layout()
        logits = engine.step([0], cache, layout, lambda layer, q, keys, z, pos, lay: shapes.append(z.shape))
        # one stream, head, query and key: the softmax over one scalar is
        # exactly 1, so the attention output is v @ wo
        assert shapes == [(1, 1, 1, 1)]
        v = cache.kv[1, 0, 0, 0, 0]
        h = x + v @ ck.layer(0, "wo")
        h = h + ref_gelu(ref_rmsnorm(h, ck.layer(0, "ffn_norm")) @ ck.layer(0, "w1")) @ ck.layer(0, "w2")
        assert np.array_equal(logits[0], ref_rmsnorm(h, ck["final_norm"]) @ ck["output"])

    def test_matches_reference_mha_exactly(self, engine, prompt):
        cache, layout, _ = prefill_and_layout(engine, prompt)
        ref_cache = copy_cache(cache)
        for tok in (4, 9, 2):
            got = engine.step([tok], cache, layout)
            want = reference_step(engine, engine.checkpoint["embedding"][tok], ref_cache, ref_cache.length)
            assert np.array_equal(got[0], want)

    def test_token_out_of_vocab_rejected(self, engine, prompt):
        cache, layout, _ = prefill_and_layout(engine, prompt)
        with pytest.raises(DataError):
            engine.step([1, engine.config.vocab_size], cache, layout)
        assert cache.length == len(prompt)


class TestSoftmaxAndCausality:
    def test_softmax_rows_sum_to_one(self, engine, prompt):
        # the weights the profiler reads through the policy hook: the
        # engine's scale and softmax on a copy of each step's logits
        sums = []

        def probe(layer, q, keys, logits, positions, layout):
            sums.append(_softmax(logits * engine._inv_sqrt_dk).sum(axis=-1).ravel())

        cache, layout, _ = prefill_and_layout(engine, prompt)
        for tok in (1, 2, 3):
            engine.step([tok], cache, layout, probe)
        all_sums = np.concatenate(sums)
        assert np.abs(all_sums - 1.0).max() < 1e-6

    def test_causality_under_mutation(self, engine):
        p1 = random_prompt(3, engine.config, n_prefix=2, n_vision=3, n_suffix=4)
        mutated = list(p1.suffix_ids)
        mutated[-1] = (mutated[-1] + 1) % engine.config.vocab_size
        p2 = MultimodalPrompt(p1.prefix_ids, p1.vision, mutated)
        l1 = engine.prefill(p1, engine.new_cache(), return_all_logits=True)
        l2 = engine.prefill(p2, engine.new_cache(), return_all_logits=True)
        # every position before the mutation sees identical logits
        assert np.array_equal(l1[: len(p1) - 1], l2[: len(p1) - 1])
        assert not np.array_equal(l1[-1], l2[-1])

    def test_logits_shape(self, engine, prompt):
        cache, layout, logits = prefill_and_layout(engine, prompt)
        assert logits.shape == (engine.config.vocab_size,)
        step_logits = engine.step([0], cache, layout)
        assert step_logits.shape == (1, engine.config.vocab_size)

    def test_forward_determinism(self, engine, prompt):
        runs = []
        for _ in range(2):
            cache = engine.new_cache()
            logits = engine.prefill(prompt, cache)
            chain = [logits]
            for tok in (4, 9):
                chain.append(engine.step([tok], cache, prompt.layout())[0])
            runs.append(np.stack(chain))
        assert np.array_equal(runs[0], runs[1])

    def test_prefill_matches_stepwise_tokens(self, engine):
        """Batched prefill and token-by-token processing agree on the next
        token choice (values may differ in the last ulp, decisions must not)."""
        p = random_prompt(4, engine.config)
        cache_a = engine.new_cache()
        logits_a = engine.prefill(p, cache_a)

        # one row per forward, as a decode step runs it; vision rows have no token id
        cache_b = engine.new_cache()
        layout = p.layout()
        for pos, row in enumerate(engine.embed_prompt(p)):
            positions = np.array([pos])
            parts = [(cache_b, 1, positions, layout, None)]
            logits_b = engine._forward(row[None], parts)[0]
        assert np.allclose(logits_a, logits_b, atol=1e-4)
        assert int(np.argmax(logits_a)) == int(np.argmax(logits_b))


class TestPrefillScores:
    """Prefill turns its q.K^T scores into attention weights in their own
    buffer; `reference_prefill` keeps the allocating formula, and the two
    must agree bit for bit."""

    @staticmethod
    def assert_matches_reference(engine, prompt, cache, policy=None):
        base, ref_cache = cache.length, copy_cache(cache)
        got = engine.prefill(prompt, cache, policy, return_all_logits=True)
        want = reference_prefill(engine, prompt, ref_cache, policy)
        assert got.shape == want.shape == (len(prompt) - base, engine.config.vocab_size)
        assert np.array_equal(got, want)
        assert np.array_equal(cache.k, ref_cache.k) and np.array_equal(cache.v, ref_cache.v)
        return got

    def test_new_cache(self, engine, prompt):
        self.assert_matches_reference(engine, prompt, engine.new_cache())

    def test_cache_holding_prefix(self, engine, prompt):
        cache = engine.new_cache()
        engine.prefill(prompt, cache)
        self.assert_matches_reference(engine, prompt.extended([7, 8, 9, 10]), cache)

    @pytest.mark.parametrize("strategy", ["image_attention", "total_attention"])
    def test_spin_policy(self, engine, prompt, strategy):
        c = engine.config
        policy = SpinPolicy(SpinConfig(strategy=strategy, r=0.5, alpha=0.0, layer_hi=c.n_layers), c.n_layers, c.n_heads)
        masked = self.assert_matches_reference(engine, prompt, engine.new_cache(), policy)
        assert not np.array_equal(masked, engine.prefill(prompt, engine.new_cache(), return_all_logits=True))
        cache = engine.new_cache()
        engine.prefill(prompt, cache, policy)
        self.assert_matches_reference(engine, prompt.extended([7, 8, 9]), cache, policy)

    def test_one_score_buffer(self):
        """Where the (H, T, S) scores dominate, prefill holds about one copy
        of them above the cache; the allocating formula holds three."""
        engine = tiny_engine(n_layers=1, n_heads=4, d_model=16, d_ffn=16, vocab_size=32, max_seq_len=400)
        prompt = random_prompt(2, engine.config, n_prefix=2, n_vision=394, n_suffix=4)
        score_bytes = engine.config.n_heads * len(prompt) ** 2 * 4
        engine.prefill(prompt, engine.new_cache())  # first-call allocations are not the prefill's
        cache = engine.new_cache()
        assert traced_peak(lambda: engine.prefill(prompt, cache)) <= 1.5 * score_bytes


class TestNumerics:
    def test_all_float32(self, engine, prompt):
        cache = engine.new_cache()
        logits = engine.prefill(prompt, cache)
        assert logits.dtype == np.float32
        assert cache.k.dtype == np.float32

    def test_softmax_handles_neg_inf(self):
        z = np.array([[0.0, -np.inf, 1.0]], dtype=np.float32)
        w = _softmax(z)
        assert w[0, 1] == 0.0
        assert abs(w.sum() - 1.0) < 1e-6

    def test_softmax_overwrites_its_argument(self):
        z = np.array([[0.5, -np.inf, 2.0], [1.0, 1.0, -3.0]], dtype=np.float32)
        m = z.max(axis=-1, keepdims=True)
        e = np.exp(z - m)
        want = e / e.sum(axis=-1, keepdims=True)
        w = _softmax(z)
        assert w is z
        assert np.array_equal(w, want)


@st.composite
def head_layouts(draw):
    """(d_model, n_heads) with d_model in [8, 96] and n_heads dividing it."""
    d_model = draw(st.integers(8, 96))
    return d_model, draw(st.sampled_from([h for h in range(1, d_model + 1) if d_model % h == 0]))


class TestFastPathFormulas:
    """The forward's norm, GELU, stacked q/k/v projection and in-place rope
    against the plain formulas in `helpers`, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(layout=head_layouts(), rows=st.integers(1, 64), scale=st.sampled_from([1e-3, 1.0, 40.0]),
           seed=st.integers(0, 2**32 - 1))
    @example(layout=(24, 8), rows=1, scale=1.0, seed=0)  # d_head 3
    @example(layout=(40, 8), rows=64, scale=1.0, seed=1)  # d_head 5
    @example(layout=(96, 32), rows=7, scale=40.0, seed=2)  # d_head 3
    @example(layout=(8, 8), rows=5, scale=1.0, seed=3)  # d_head 1: no rotated pair
    def test_bitwise_equal_to_plain_formulas(self, layout, rows, scale, seed):
        d_model, n_heads = layout
        config = ModelConfig(n_layers=1, n_heads=n_heads, d_model=d_model, d_ffn=8, vocab_size=4, max_seq_len=2)
        engine = Engine(init_checkpoint(config, seed % 97))
        rng = np.random.default_rng(seed)
        x = (scale * rng.standard_normal((rows, d_model))).astype(np.float32)
        gain = rng.standard_normal(d_model).astype(np.float32)
        assert np.array_equal(rmsnorm(x, gain), ref_rmsnorm(x, gain))
        assert np.array_equal(gelu(x.copy()), ref_gelu(x))

        positions = rng.integers(0, 4096, rows)
        h = ref_rmsnorm(x, engine.checkpoint.layer(0, "attn_norm"))
        wqkv = engine._layers[0][1]
        qkv = np.matmul(h, wqkv).reshape(3, 1, rows, n_heads, config.d_head)
        cs, sn = engine._rope_tables(positions)
        _rope(qkv[:2], cs, sn, engine._rope_perm)
        want = ref_qkv(engine, 0, h, *ref_rope_tables(config.d_head, positions))
        for got, ref in zip(qkv[:, 0], want):
            assert np.array_equal(got, ref)


CRITERION_6 = ModelConfig(n_layers=8, n_heads=8, d_model=256, d_ffn=1024, vocab_size=512, max_seq_len=704)


class TestNoWeightCopy:
    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("c6") / "model.spnm"
        save_checkpoint(init_checkpoint(CRITERION_6, 123), path)
        return load_checkpoint(path)

    def test_qkv_stack_is_a_view_of_the_checkpoint_buffer(self, loaded):
        engine = Engine(loaded)
        for i, layer in enumerate(engine._layers):
            wqkv = layer[1]
            assert wqkv.shape == (3, 256, 256) and not wqkv.flags.writeable
            assert np.shares_memory(wqkv, loaded.data)
            for w, name in zip(wqkv, ("wq", "wk", "wv")):
                assert np.array_equal(w, loaded.layer(i, name))

    def test_engine_allocates_no_weights(self, loaded):
        Engine(loaded)  # first-call caches are not the construction's
        assert traced_peak(lambda: Engine(loaded)) < 100_000


QUICK_START = ModelConfig(n_layers=4, n_heads=8, d_model=64, d_ffn=256, vocab_size=56, max_seq_len=512)


def weight_shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    d, f = config.d_model, config.d_ffn
    return [(3, d, d), (d, d), (d, f), (f, d), (d, config.vocab_size)]


class TestPlannedMultiply:
    """Products past OpenBLAS's small-matrix limit at a few rows run as
    small-kernel pieces (`_plan`); every output bit must stay a @ w's."""

    @pytest.fixture(scope="class")
    def c6_engine(self):
        return Engine(init_checkpoint(CRITERION_6, 123))

    @pytest.mark.parametrize("shape", sorted({*weight_shapes(CRITERION_6), *weight_shapes(QUICK_START), (512, 2048), (2048, 512)}),
                             ids=str)
    def test_bitwise_equal_to_matmul(self, shape):
        rng = np.random.default_rng(sum(shape))
        w = rng.standard_normal(shape, np.float32)
        planned = [m for m in range(1, 17) if _plan(m, w)]
        # a plan wherever a product is past the limit, except one row
        assert planned == [m for m in range(2, 17) if m * shape[-2] * shape[-1] > 1_000_000]
        for m in planned:
            for _ in range(4):
                a = (rng.standard_normal((m, shape[-2])) * rng.choice([1e-3, 1.0, 40.0])).astype(np.float32)
                assert np.array_equal(_plan(m, w)(a, w), a @ w), (shape, m)

    def test_plans_where_predicted(self, c6_engine):
        """decode-long (one-row steps, 512-row prefill) and the quick-start
        eval run the plain matmul; beam 5 on the criterion-6 model plans w1 and w2."""
        assert c6_engine._matmul(1) is np.matmul and c6_engine._matmul(512) is np.matmul
        quick = Engine(init_checkpoint(QUICK_START, 1))
        assert all(quick._matmul(rows) is np.matmul for rows in range(1, QUICK_START.max_seq_len + 1))
        attn_norm, wqkv, wo, ffn_norm, w1, w2 = c6_engine._layers[0]
        assert _plan(5, w1) is not None and _plan(5, w2) is not None
        assert _plan(5, wqkv) is None and _plan(5, wo) is None and _plan(5, c6_engine.checkpoint["output"]) is None
        assert c6_engine._matmul(5) is not np.matmul
        # from the first row count past the limit to the measured bound
        assert [m for m in range(1, 65) if _plan(m, w2)] == list(range(4, 33))

    @pytest.mark.parametrize("rows", [4, 5, 8, 16])
    def test_forward_bitwise_equal_to_plain_path(self, c6_engine, monkeypatch, rows):
        """A step of `rows` beams and a `rows`-row prefill give the plain path's logits and caches bit for bit."""
        prompt = random_prompt(3, c6_engine.config, n_prefix=1, n_vision=rows - 2, n_suffix=1)
        outs = []
        for max_rows in (engine_module._PLAN_MAX_ROWS, 0):  # planned, then plain
            monkeypatch.setattr(engine_module, "_PLAN_MAX_ROWS", max_rows)
            engine = Engine(c6_engine.checkpoint)
            cache = engine.new_cache(rows)
            first = engine.prefill(prompt, cache, return_all_logits=True)
            cache.select([0] * rows)
            step = engine.step(list(range(rows)), cache, prompt.layout())
            outs.append((first, step, cache.kv.copy(), engine._matmul(rows) is np.matmul))
        (first, step, kv, plain), (first0, step0, kv0, plain0) = outs
        assert not plain and plain0
        assert np.array_equal(first, first0) and np.array_equal(step, step0) and np.array_equal(kv, kv0)

    def test_wrong_plan_rejected(self, c6_engine, monkeypatch):
        """K chunks unlike the driver's (as on another BLAS build) miss a @ w
        on the probe, so the plan is dropped and the step stays bitwise."""
        w1, w2 = c6_engine._layers[0][4:]
        prompt = random_prompt(4, c6_engine.config, n_prefix=2, n_vision=8, n_suffix=2)
        layout = prompt.layout()

        def beam_step(engine):
            cache = engine.new_cache(5)
            engine.prefill(prompt, cache)
            cache.select([0] * 5)
            return engine.step([1, 2, 3, 4, 5], cache, layout)

        want = beam_step(Engine(c6_engine.checkpoint))
        monkeypatch.setattr(engine_module, "_GEMM_Q", 400)  # K = 1024 cut at 400 and 712, not 448 and 736
        assert _plan(5, w2) is None
        assert _plan(5, w1) is not None  # K = 256 is one chunk either way
        assert np.array_equal(beam_step(Engine(c6_engine.checkpoint)), want)


STRATEGIES = ("image_attention", "total_attention", "query_norm", "key_norm")
APPLY_MODES = ("all_text_queries", "generated_text_queries_only")
STEP_MANY_ENGINE = tiny_engine(seed=7)


@st.composite
def step_requests(draw, engine):
    """An `Engine.step` request drawn over a fresh cache: 1-3 live streams of
    a cache of up to 3, a prompt of its own length, 0-3 earlier steps, and no
    policy or a SpinPolicy with any strategy and apply_to mode."""
    c = engine.config
    width = draw(st.integers(1, 3))
    prompt = random_prompt(draw(st.integers(0, 2**16)), c, n_prefix=draw(st.integers(0, 3)),
                           n_vision=draw(st.integers(1, 5)), n_suffix=draw(st.integers(0, 4)))
    layout = prompt.layout()
    cache = engine.new_cache(draw(st.integers(width, 3)))
    engine.prefill(prompt, cache)
    cache.select([0] * cache.n_streams)
    tokens = st.lists(st.integers(0, c.vocab_size - 1), min_size=width, max_size=width)
    for _ in range(draw(st.integers(0, 3))):
        engine.step(draw(tokens), cache, layout)
    policy = draw(st.none() | st.builds(
        lambda strategy, apply_to, alpha, hi: SpinPolicy(
            SpinConfig(strategy=strategy, r=0.5, alpha=alpha, layer_lo=1, layer_hi=hi, apply_to=apply_to),
            c.n_layers, c.n_heads),
        st.sampled_from(STRATEGIES), st.sampled_from(APPLY_MODES), st.sampled_from([0.0, 0.3]),
        st.integers(1, c.n_layers)))
    return draw(tokens), cache, layout, policy


class TestStepMany:
    """Requests stepped together give each request's own `Engine.step`
    logits and cache rows bit for bit."""

    @staticmethod
    def assert_matches_step_per_request(engine, requests):
        refs = [copy_cache(cache) for _, cache, _, _ in requests]
        want = [engine.step(tokens, ref, layout, policy) for (tokens, _, layout, policy), ref in zip(requests, refs)]
        got = engine.step_many(requests)
        assert len(got) == len(requests)
        for (_, cache, _, _), ref, g, w in zip(requests, refs, got, want):
            assert np.array_equal(g, w)
            assert layer_lengths(cache) == layer_lengths(ref)
            assert np.array_equal(cache.kv, ref.kv)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_step_per_request(self, data):
        requests = data.draw(st.lists(step_requests(STEP_MANY_ENGINE), min_size=1, max_size=6))
        self.assert_matches_step_per_request(STEP_MANY_ENGINE, requests)

    def test_planned_multiplies(self):
        """Beams of 5 on the criterion-6 model plan w1 and w2: stacked, the
        plans still give each request's own bits."""
        engine = Engine(init_checkpoint(CRITERION_6, 123))
        assert engine._matmul(5) is not np.matmul
        requests = []
        for seed, width in ((1, 5), (2, 5), (3, 2), (4, 5)):
            prompt = random_prompt(seed, CRITERION_6, n_prefix=1, n_vision=3 + seed, n_suffix=2)
            cache = engine.new_cache(width)
            engine.prefill(prompt, cache)
            cache.select([0] * width)
            requests.append((list(range(seed, seed + width)), cache, prompt.layout(), None))
        self.assert_matches_step_per_request(engine, requests)

    @pytest.mark.parametrize("width", [1, 3])
    def test_lone_part_multiplies_in_2d(self, engine, prompt, monkeypatch, width):
        """`prefill` and `step` each run one forward of one part, and every
        weight product in it takes its rows as one 2-D operand."""
        forwards, ndims = [], []  # parts per forward; ndim of each product's left operand
        forward, matmul = Engine._forward, engine._matmul

        def counted_forward(self, x, parts):
            forwards.append(len(parts))
            return forward(self, x, parts)

        def recorded_matmul(rows):
            mm = matmul(rows)
            return lambda a, w: ndims.append(a.ndim) or mm(a, w)

        monkeypatch.setattr(Engine, "_forward", counted_forward)
        monkeypatch.setattr(engine, "_matmul", recorded_matmul)
        cache = engine.new_cache(width)
        engine.prefill(prompt, cache)
        cache.select([0] * width)
        engine.step(list(range(1, width + 1)), cache, prompt.layout())
        assert forwards == [1, 1]
        assert ndims == [2] * 2 * (4 * engine.config.n_layers + 1)  # q/k/v, wo, w1, w2 per layer, then the LM head

    def test_checks_every_request_before_any_row(self):
        engine = tiny_engine(seed=7, max_seq_len=12)
        prompts = [random_prompt(s, engine.config, n_suffix=n) for s, n in ((1, 1), (2, 6))]  # 7 and 12 rows
        caches = [engine.new_cache() for _ in prompts]
        for prompt, cache in zip(prompts, caches):
            engine.prefill(prompt, cache)
        before = [cache.kv.copy() for cache in caches]
        with pytest.raises(ContextOverflowError):
            engine.step_many([([1], cache, prompt.layout(), None) for prompt, cache in zip(prompts, caches)])
        assert all(np.array_equal(cache.kv, kv) for cache, kv in zip(caches, before))
        assert [cache.length for cache in caches] == [7, 12]

    def test_checks_cache_room_before_any_row(self, engine, prompt):
        """A request whose cache is full below max_seq_len stops the step, and a prefill past a cache's
        room stops before its first row: no cache is written and no length moves."""
        a, b = engine.new_cache(), engine.new_cache(1, len(prompt))
        for cache in (a, b):
            engine.prefill(prompt, cache)
        before = [(cache.kv.copy(), cache.length) for cache in (a, b)]
        with pytest.raises(ContextOverflowError, match="kv cache overflow"):
            engine.step_many([([1], cache, prompt.layout(), None) for cache in (a, b)])
        with pytest.raises(ContextOverflowError, match="kv cache overflow"):
            engine.prefill(prompt.extended([1]), b)
        for cache, (kv, length) in zip((a, b), before):
            assert np.array_equal(cache.kv, kv) and cache.length == length

    def test_step_after_a_failed_step_is_unchanged(self, engine, prompt):
        """A policy that raises at layer 1 moves no length: the next step on the cache gives the bits of the
        same step on a copy taken before the failure, and overwrites the failed step's rows."""
        layout = prompt.layout()
        cache = engine.new_cache()
        engine.prefill(prompt, cache)
        ref = copy_cache(cache)

        def failing(layer, *args):
            if layer == 1:
                raise RuntimeError("policy failed")

        with pytest.raises(RuntimeError, match="policy failed"):
            engine.step([5], cache, layout, failing)
        assert cache.length == ref.length
        assert np.array_equal(engine.step([3], cache, layout), engine.step([3], ref, layout))
        assert cache.length == ref.length and np.array_equal(cache.kv, ref.kv)


def traced(cfg: SpinConfig, config: ModelConfig) -> SpinPolicy:
    """A SpinPolicy tracing into memory."""
    trace = MaskTraceWriter(io.StringIO(), config.n_layers, config.n_heads, cfg)
    return SpinPolicy(cfg, config.n_layers, config.n_heads, trace)


@st.composite
def pooled_requests(draw, engine):
    """1-5 requests on consecutive slots of one pool, drawn so that groups form: slots of 1-3 streams, all
    live, prompts of one length, as many earlier steps, and no policy, one shared policy, or one equal
    traced policy per request. A request may break its group: one more earlier step (another key count),
    another layout of the same length, a skipped slot, one stream fewer, or another policy config (a
    shared one then stays shared), or a slot of another pool at the offset that lines up. Returns the
    requests and, stepped the same way on standalone caches, their references."""
    c = engine.config
    width, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    pool, other = (engine.new_cache(2 * n * width, 24) for _ in range(2))
    n_prefix, n_vision, n_suffix, steps = (draw(st.integers(lo, hi)) for lo, hi in ((0, 2), (1, 4), (1, 3), (0, 2)))
    cfg = SpinConfig(strategy=draw(st.sampled_from(STRATEGIES + ("image_attention",) * 2)), r=0.5,  # layouts matter to it
                     alpha=draw(st.sampled_from([0.0, 0.3])), layer_lo=1, layer_hi=draw(st.integers(1, c.n_layers)),
                     apply_to=draw(st.sampled_from(APPLY_MODES)))
    kind = draw(st.sampled_from(["none", "shared", "per request", "per request"]))
    shared = SpinPolicy(cfg, c.n_layers, c.n_heads)  # untraced: a shared trace has its lines in layer order
    requests, refs, slot = [], [], 0
    for _ in range(n):
        breaker = draw(st.sampled_from(["none"] * 3 + ["key count", "layout", "slot", "fewer streams", "policy", "pool"]))
        slot += breaker == "slot"
        shift = breaker == "layout"
        prompt = random_prompt(draw(st.integers(0, 2**16)), c, n_prefix + shift, n_vision, n_suffix - shift)
        live = width - (breaker == "fewer streams" and width > 1)
        spin_cfg = SpinConfig(**{**cfg.__dict__, "alpha": 0.6}) if breaker == "policy" else cfg
        tokens = [draw(st.lists(st.integers(0, c.vocab_size - 1), min_size=live, max_size=live))
                  for _ in range(steps + (breaker == "key count") + 1)]
        for side, cache in (("g", (other if breaker == "pool" else pool).slot(slot * width, width)),
                            ("r", engine.new_cache(width, 24))):
            engine.prefill(prompt, cache)
            cache.select([0] * width)
            for earlier in tokens[:-1]:
                engine.step(earlier, cache, prompt.layout())
            policy = {"none": None, "shared": shared, "per request": traced(spin_cfg, c)}[kind]
            (requests if side == "g" else refs).append((tokens[-1], cache, prompt.layout(), policy))
        slot += 1
    return requests, refs


def trace_text(policy) -> str:
    return policy.trace._fh.getvalue() if policy is not None and policy.trace is not None else ""


class TestGroups:
    """Consecutive requests of one key (pool, adjacent slots, key count, stream count, layout and equal
    policies) attend and call the mask policy once per layer as one group: each request still gets its
    own `Engine.step` logits, cache rows and trace bytes, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_step_on_standalone_caches(self, data):
        requests, refs = data.draw(pooled_requests(STEP_MANY_ENGINE))
        want = [STEP_MANY_ENGINE.step(*ref) for ref in refs]
        got = STEP_MANY_ENGINE.step_many(requests)
        for (_, cache, _, policy), (_, ref, _, ref_policy), g, w in zip(requests, refs, got, want):
            assert np.array_equal(g, w)
            assert layer_lengths(cache) == layer_lengths(ref)
            assert np.array_equal(cache.kv, ref.kv)
            assert trace_text(policy) == trace_text(ref_policy)

    @pytest.mark.parametrize("breaker, calls", [
        (None, [(7, 8, 8)]), ("shared", [(6, 8, 8)]), ("key count", [(7, 4, 4), (7, 4, 4)]),
        ("slot", [(7, 4, 4), (7, 4, 4)]), ("layout", [(7, 4, 4), (7, 4, 4)]), ("policy", [(7, 4, 4), (7, 4, 4)]),
        ("pool", [(7, 4, 4), (7, 4, 4)]), ("fewer streams", [(7, 4, 4), (6, 1, 1), (6, 1, 1)])])
    def test_one_policy_call_per_layer_and_run(self, breaker, calls, monkeypatch):
        """Four lockstep 2-stream requests on slots 0-3, the last two breaking off, make per layer one
        policy call (arguments, streams of keys, streams of logits) per group, a run of parts of one key,
        on all of the group's keys and logits, and the keys are a view of a pool. Equal policies that are
        not one object give the first a seventh argument; one shared policy, or a group of one, gets six."""
        engine, c = STEP_MANY_ENGINE, STEP_MANY_ENGINE.config
        pool, other = (engine.new_cache(5 * 2, 24) for _ in range(2))
        shared = traced(SpinConfig(r=0.5, layer_hi=c.n_layers), c)
        requests = []
        for k in range(4):
            late = k >= 2
            shift = late and breaker == "layout"
            prompt = random_prompt(k, c, 1 + shift, 3, 3 - shift)
            cache = (other if late and breaker == "pool" else pool).slot(2 * (k + (late and breaker == "slot")), 2)
            engine.prefill(prompt, cache)
            cache.select([0, 0])
            for _ in range(1 + (late and breaker == "key count")):
                engine.step([k, k + 1], cache, prompt.layout())
            alpha = 0.5 if late and breaker == "policy" else 0.0
            policy = shared if breaker == "shared" else traced(SpinConfig(r=0.5, alpha=alpha, layer_hi=c.n_layers), c)
            requests.append(([3, 4][: 1 if late and breaker == "fewer streams" else 2], cache, prompt.layout(), policy))
        seen, call = [], SpinPolicy.__call__
        monkeypatch.setattr(SpinPolicy, "__call__", lambda self, *a: seen.append(
            (len(a), len(a[2]), len(a[3]), any(np.shares_memory(a[2], p.kv) for p in (pool, other)))) or call(self, *a))
        engine.step_many(requests)
        assert seen == [(*group_call, True) for _ in range(c.n_layers) for group_call in calls]
