import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_infer import cli
from spin_infer.config import parse_run_config
from spin_infer.corpus import SyntheticCorpusSpec, TokenTable, generate_synthetic_corpus
from spin_infer.decoding import DecodeConfig, generate
from spin_infer.engine import Engine, MultimodalPrompt
from spin_infer.model import ModelConfig, init_checkpoint, save_checkpoint
from spin_infer.errors import ConfigError, DataError
from spin_infer.prng import SplitMix64
from spin_infer.spin import MaskTraceWriter, SpinConfig, SpinPolicy, kept_count

from helpers import (
    build_mask,
    e1_vision,
    hook_args,
    planted_checkpoint,
    random_prompt,
    score_heads_alternative,
    score_heads_image_attention,
    tiny_engine,
    top_k_heads,
)


def spin(r=0.5, alpha=0.0, lo=1, hi=2, **kw):
    return SpinConfig(r=r, alpha=alpha, layer_lo=lo, layer_hi=hi, **kw)


class TestSpinConfig:
    @pytest.mark.parametrize("kw", [
        {"r": -0.1}, {"r": 1.0}, {"alpha": -0.01}, {"alpha": 1.5},
        {"lo": 0}, {"lo": 3, "hi": 2}, {"strategy": "bogus"}, {"apply_to": "bogus"},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            spin(**kw)

    @staticmethod
    def run_config(spin_section: dict) -> dict:
        model = ModelConfig(n_layers=4, n_heads=4, d_model=16, d_ffn=16, vocab_size=16, max_seq_len=32)
        return {"model": {"init": {"seed": 0, "config": model.to_dict()}}, "spin": spin_section}

    def test_roundtrip(self):
        cfg = spin(r=0.25, alpha=0.1, lo=2, hi=4, strategy="key_norm")
        assert parse_run_config(json.loads(json.dumps(self.run_config(cfg.to_dict()))), environ={}).spin == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^spin: unknown keys: \['post_softmax'\]$"):
            parse_run_config(self.run_config({"r": 0.5, "post_softmax": False}), environ={})


class TestKeptCount:
    def test_thirty_two_heads_five_percent(self):
        # 32 heads at r=0.05 suppresses 2 heads
        assert kept_count(0.05, 32) == 30

    def test_r_zero_keeps_all(self):
        for h in (1, 4, 8, 32):
            assert kept_count(0.0, h) == h

    def test_clamped_to_one(self):
        assert kept_count(0.99, 8) == 1

    def test_half_rounds_up(self):
        # r*H = 2.0 exactly -> 2 suppressed; r*H = 1.5 -> 2 suppressed
        assert kept_count(0.25, 8) == 6
        assert kept_count(0.1875, 8) == 6


class TestScoring:
    def test_orthogonal_vs_positive(self):
        # head 0's query is orthogonal to every vision key, head 1 has
        # positive dot products
        q = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        keys = np.zeros((2, 3, 2), dtype=np.float32)
        keys[0, 1:] = [[0.0, 1.0], [0.0, 2.0]]
        keys[1, 1:] = [[1.0, 1.0], [2.0, 0.5]]
        s = score_heads_image_attention(q, keys, 1, 3)
        assert s[0] == 0.0
        assert s[1] > 0.0

    def test_hand_computed_two_heads(self):
        q = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=np.float32)
        keys = np.array(
            [
                [[1.0, 0.0], [0.0, 1.0], [3.0, 1.0]],
                [[2.0, 2.0], [1.0, 0.0], [0.0, 4.0]],
            ],
            dtype=np.float32,
        )
        s = score_heads_image_attention(q, keys, 0, 2)
        # head 0: (1*1+2*0) + (1*0+2*1) = 3 ; head 1: (0.5*2-1*2) + (0.5*1) = -0.5
        assert s == pytest.approx([3.0, -0.5])

    def test_query_scaling_preserves_order(self):
        rng = SplitMix64(4)
        q = (2 * rng.uniforms(4 * 3) - 1).reshape(4, 3).astype(np.float32)
        keys = (2 * rng.uniforms(4 * 6 * 3) - 1).reshape(4, 6, 3).astype(np.float32)
        s1 = score_heads_image_attention(q, keys, 1, 4)
        s2 = score_heads_image_attention(np.float32(3.0) * q, keys, 1, 4)
        assert np.allclose(s2, 3.0 * s1, rtol=1e-5)
        assert np.array_equal(np.argsort(-s1, kind="stable"), np.argsort(-s2, kind="stable"))

    def test_span_outside_cache(self):
        q = np.zeros((2, 2), np.float32)
        keys = np.zeros((2, 3, 2), np.float32)
        with pytest.raises(DataError):
            score_heads_image_attention(q, keys, 1, 5)

    def test_zero_query_norm(self):
        q = np.zeros((2, 3), np.float32)
        q[1] = [1.0, 2.0, 2.0]
        s = score_heads_alternative("query_norm", q, np.zeros((2, 1, 3), np.float32))
        assert s[0] == 0.0
        assert s[1] == pytest.approx(3.0)

    def test_total_attention_equals_image_attention_on_full_span(self):
        rng = SplitMix64(9)
        q = (2 * rng.uniforms(3 * 2) - 1).reshape(3, 2).astype(np.float32)
        keys = (2 * rng.uniforms(3 * 5 * 2) - 1).reshape(3, 5, 2).astype(np.float32)
        total = score_heads_alternative("total_attention", q, keys)
        image = score_heads_image_attention(q, keys, 0, 5)
        assert np.allclose(total, image, atol=1e-6)

    def test_key_norm_hand_computed(self):
        keys = np.array(
            [
                [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0]],
                [[1.0, 0.0], [0.0, 2.0], [2.0, 0.0]],
            ],
            dtype=np.float32,
        )
        s = score_heads_alternative("key_norm", np.zeros((2, 2), np.float32), keys)
        assert s == pytest.approx([(5.0 + 0.0 + 10.0) / 3, (1.0 + 2.0 + 2.0) / 3])

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            score_heads_alternative("bogus", np.zeros((1, 2), np.float32), np.zeros((1, 1, 2), np.float32))


class TestBuildMask:
    def test_worked_example(self):
        cfg = spin(r=0.5, alpha=0.25, lo=1, hi=4)  # H=4, K=2
        mask = build_mask(np.array([0.5, 0.2, 0.3, 0.1], np.float32), cfg, layer=1)
        assert mask.tolist() == [1.0, 0.25, 1.0, 0.25]

    def test_r_zero_all_ones(self):
        cfg = spin(r=0.0, alpha=0.0)
        mask = build_mask(np.array([9.0, -1.0, 3.0, 0.0], np.float32), cfg, layer=1)
        assert mask.tolist() == [1.0] * 4

    def test_tie_break_lowest_index(self):
        cfg = spin(r=0.75, alpha=0.5)  # H=4 -> K=1
        mask = build_mask(np.zeros(4, np.float32), cfg, layer=1)
        assert mask.tolist() == [1.0, 0.5, 0.5, 0.5]

    def test_out_of_range_layer(self):
        cfg = spin(r=0.75, alpha=0.0, lo=2, hi=3)
        mask = build_mask(np.array([1.0, 2.0, 3.0, 4.0], np.float32), cfg, layer=1)
        assert mask.tolist() == [1.0] * 4


@st.composite
def score_vectors(draw):
    h = draw(st.sampled_from([4, 8, 32]))
    scores = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=h,
            max_size=h,
        )
    )
    return np.array(scores, dtype=np.float32)


class TestMaskProperties:
    @given(scores=score_vectors(), r=st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_cardinality(self, scores, r):
        h = len(scores)
        cfg = spin(r=r, alpha=0.5, lo=1, hi=1)
        mask = build_mask(scores, cfg, layer=1)
        assert int((mask == 1.0).sum()) == kept_count(r, h)
        assert set(np.unique(mask)) <= {np.float32(1.0), np.float32(0.5)}

    @given(scores=score_vectors(),
           r1=st.floats(min_value=0.0, max_value=0.999),
           r2=st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nesting(self, scores, r1, r2):
        lo_r, hi_r = sorted((r1, r2))
        h = len(scores)
        kept_at = lambda r: set(top_k_heads(scores, kept_count(r, h)).tolist())
        assert kept_at(hi_r) <= kept_at(lo_r)

    @given(scores=score_vectors(), c=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, scores, c):
        # scale in float64: float32-representable scores differ by >= 2^-24
        # relative, so a float64 product keeps their exact order
        k = max(1, len(scores) // 2)
        a = top_k_heads(scores, k)
        b = top_k_heads(scores.astype(np.float64) * c, k)
        assert np.array_equal(a, b)


def make_policy(cfg, engine, trace=None):
    return SpinPolicy(cfg, engine.config.n_layers, engine.config.n_heads, trace)


class TestSpinPolicy:
    def test_layer_range_exceeds_model(self):
        engine = tiny_engine()
        with pytest.raises(ConfigError):
            make_policy(spin(lo=1, hi=9), engine)

    @pytest.mark.parametrize("cfg", [spin(r=0.0, alpha=0.0), spin(r=0.5, alpha=1.0)])
    def test_noop_configs_match_baseline(self, cfg):
        engine = tiny_engine(seed=2)
        prompt = random_prompt(7, engine.config)
        dc = DecodeConfig(max_new_tokens=10, eos_id=None, seed=0)
        base = generate(engine, prompt, dc)
        spun = generate(engine, prompt, dc, make_policy(cfg, engine))
        assert spun.token_ids == base.token_ids

    def test_suppression_changes_output(self):
        engine = tiny_engine(seed=2)
        prompt = random_prompt(7, engine.config)
        dc = DecodeConfig(max_new_tokens=10, eos_id=None, seed=0)
        base = generate(engine, prompt, dc)
        spun = generate(engine, prompt, dc, make_policy(spin(r=0.5, alpha=0.0), engine))
        assert spun.token_ids != base.token_ids

    def test_vision_and_prevision_queries_get_all_ones(self):
        engine = tiny_engine(seed=1)
        prompt = random_prompt(3, engine.config, n_prefix=2, n_vision=4, n_suffix=3)
        policy = make_policy(spin(r=0.5, alpha=0.0), engine)
        seen = {}

        def spy(layer, q, keys, logits, positions, layout):
            masks = policy(layer, q, keys, logits, positions, layout)
            if layer == 0:
                seen["masks"] = masks
            return masks

        cache = engine.new_cache()
        engine.prefill(prompt, cache, spy)
        masks = seen["masks"]
        i_end = prompt.i_end
        assert np.array_equal(masks[:i_end], np.ones_like(masks[:i_end]))
        assert (masks[i_end:] == 0.0).any()

    def test_generated_only_mode_skips_prefill_rows(self):
        engine = tiny_engine(seed=1)
        prompt = random_prompt(3, engine.config)
        cfg = spin(r=0.5, alpha=0.0, apply_to="generated_text_queries_only")
        policy = make_policy(cfg, engine)
        q = np.zeros((len(prompt), 4, 8), np.float32)
        out = policy(0, q, *hook_args(q, np.zeros((1, 4, len(prompt), 8), np.float32)),
                     np.arange(len(prompt)), prompt.layout())
        assert out is None  # whole prefill is below the generated floor

    def test_out_of_range_layer_returns_none(self):
        engine = tiny_engine(seed=1)
        prompt = random_prompt(3, engine.config)
        policy = make_policy(spin(r=0.5, alpha=0.0, lo=2, hi=2), engine)
        q = np.zeros((1, 4, 8), np.float32)
        out = policy(0, q, *hook_args(q, np.zeros((1, 4, 12, 8), np.float32)), np.array([11]), prompt.layout())
        assert out is None

    def test_decode_fast_path_matches_build_mask(self):
        # the policy's one path must agree with the oracle scores and the
        # oracle top-K (same K, same tie-breaking) on every strategy, for
        # prefill rows (T > 1) and decode rows (T = 1) alike; rows below the
        # maskable floor stay all-ones
        engine = tiny_engine(seed=9)
        prompt = random_prompt(8, engine.config)
        layout = prompt.layout()
        H, dk = engine.config.n_heads, engine.config.d_head
        T = len(prompt)
        rng = SplitMix64(3)
        for strategy in ("image_attention", "total_attention", "query_norm", "key_norm"):
            for trial in range(20):
                r = (0.25, 0.5, 0.75)[trial % 3]
                cfg = spin(r=r, alpha=0.25, strategy=strategy)
                policy = make_policy(cfg, engine)
                cache = engine.new_cache()
                engine.prefill(prompt, cache)
                q = (2 * rng.uniforms(T * H * dk) - 1).reshape(T, H, dk).astype(np.float32)
                if trial % 5 == 0:
                    q[:] = 0.0  # all-tied scores exercise the index tie-break
                keys = cache.kv[0, 0, :1, :, :T]  # layer 0, stream 0
                for positions in (np.arange(T), np.array([T - 1])):
                    rows = q[-len(positions):]
                    got = policy(0, rows, *hook_args(rows, keys), positions, layout)
                    for t, pos in enumerate(positions):
                        if pos < layout.i_end:
                            assert (got[t] == 1.0).all(), (strategy, trial, pos)
                            continue
                        visible = keys[0, :, : pos + 1]
                        if strategy == "image_attention":
                            ref = score_heads_image_attention(rows[t], visible, layout.i_start, layout.i_end)
                        else:
                            ref = score_heads_alternative(strategy, rows[t], visible)
                        kept = top_k_heads(np.asarray(ref, np.float32), kept_count(r, H))
                        want = np.full(H, np.float32(0.25))
                        want[kept] = 1.0
                        assert np.array_equal(got[t], want), (strategy, trial, pos)
                        assert np.array_equal(build_mask(np.asarray(ref, np.float32), cfg, 1), want)

    def test_batch_scores_match_single_query_ops(self):
        engine = tiny_engine(seed=3)
        prompt = random_prompt(5, engine.config)
        rng = SplitMix64(12)
        H, dk = engine.config.n_heads, engine.config.d_head
        S = len(prompt)
        q = (2 * rng.uniforms(2 * H * dk) - 1).reshape(2, H, dk).astype(np.float32)
        keys = (2 * rng.uniforms(H * S * dk) - 1).reshape(H, S, dk).astype(np.float32)
        positions = np.array([S - 2, S - 1])
        layout = prompt.layout()
        for strategy in ("image_attention", "total_attention", "query_norm", "key_norm"):
            policy = make_policy(spin(r=0.5, alpha=0.0, strategy=strategy), engine)
            batch = policy._scores(q, *hook_args(q, keys[None]), positions, layout)
            for t, pos in enumerate(positions):
                visible = keys[:, : pos + 1]
                if strategy == "image_attention":
                    want = score_heads_image_attention(q[t], visible, layout.i_start, layout.i_end)
                else:
                    want = score_heads_alternative(strategy, q[t], visible)
                assert np.allclose(batch[t], want, atol=1e-4), (strategy, t)


class TestPlantedBias:
    def test_planted_heads_always_kept(self):
        ckpt, config = planted_checkpoint()
        engine = Engine(ckpt)
        prompt = MultimodalPrompt([], e1_vision(16, config.d_model), [5, 6, 7, 8])
        cfg = spin(r=0.25, alpha=0.0, lo=1, hi=1)  # K = 6 of 8
        policy = make_policy(cfg, engine)
        kept_sets = []

        def spy(layer, q, keys, logits, positions, layout):
            masks = policy(layer, q, keys, logits, positions, layout)
            if layer == 0 and masks is not None:
                for row, pos in zip(masks, positions):
                    if pos >= layout.i_end:
                        kept_sets.append(frozenset(np.flatnonzero(row == 1.0).tolist()))
            return masks

        dc = DecodeConfig(max_new_tokens=24, eos_id=None, seed=0)
        generate(engine, prompt, dc, spy)
        assert kept_sets, "no masks were recorded"
        for kept in kept_sets:
            assert {5, 6} <= kept
            assert 7 not in kept  # zero image score + highest index loses ties


def reference_scores(strategy, q, keys, positions, layout):
    """Scores (B*T, H) recomputed from the query rows and keys alone, as the
    policy computed them before it read the layer's logits: the per-row
    span oracle, a causal q.K^T of its own, or the norm oracles."""
    B, T, H = len(keys), len(positions), q.shape[1]
    if strategy == "total_attention":
        logits = np.matmul(q.reshape(B, T, H, -1).transpose(0, 2, 1, 3), keys.transpose(0, 1, 3, 2))
        allowed = np.arange(keys.shape[2])[None, :] <= positions[:, None]
        return np.where(allowed, logits, np.float32(0.0)).sum(axis=3).transpose(0, 2, 1).reshape(B * T, H)
    rows = []
    for b in range(B):
        for t, pos in enumerate(positions):
            row, visible = q[b * T + t], keys[b, :, : pos + 1]
            if strategy == "image_attention" and pos >= layout.i_end:
                rows.append(score_heads_image_attention(row, visible, layout.i_start, layout.i_end))
            elif strategy == "image_attention":
                rows.append(np.zeros(H, np.float32))  # not maskable: the span is not behind it yet
            else:
                rows.append(score_heads_alternative(strategy, row, visible))
    return np.asarray(rows, np.float32)


class TestHookDifferential:
    """The policy reads the layer's own logits; its masks must equal
    build_mask of scores recomputed from q and the keys, except on rows
    whose K-th and (K+1)-th reference scores are a near tie."""

    STRATEGIES = ("image_attention", "total_attention", "query_norm", "key_norm")

    def spied_policy(self, cfg, engine, stats):
        policy = make_policy(cfg, engine)
        K = kept_count(cfg.r, engine.config.n_heads)

        def spy(layer, q, keys, logits, positions, layout):
            assert logits.shape == (len(keys), q.shape[1], len(positions), keys.shape[2])
            ref = reference_scores(cfg.strategy, q, keys, positions, layout)
            masks = policy(layer, q, keys, logits, positions, layout)
            got = np.ones_like(ref) if masks is None else masks
            stats["calls"].add((len(keys), len(positions), int(positions[0])))  # (B, T, first position)
            for row, pos in enumerate(np.tile(positions, len(keys))):
                want = build_mask(ref[row], cfg, layer + 1) if pos >= layout.i_end else np.ones_like(ref[row])
                stats["rows"] += 1
                if not np.array_equal(got[row], want):
                    kth, next_ = np.sort(ref[row].astype(np.float64))[::-1][K - 1 : K + 1]
                    assert abs(kth - next_) <= 1e-5 * max(abs(kth), abs(next_)), (cfg.strategy, layer, pos)
                    stats["near_ties"] += 1
            return masks

        return spy

    def run(self, strategy, decode, truncate_to=None):
        engine = tiny_engine(seed=4, n_heads=8, d_model=64)
        prompt = random_prompt(11, engine.config, n_prefix=2, n_vision=6, n_suffix=5)
        cfg = spin(r=0.5, alpha=0.25, strategy=strategy)
        stats = {"calls": set(), "rows": 0, "near_ties": 0}
        cache = None
        if truncate_to is not None:
            cache = engine.new_cache(decode.n_streams)
            engine.prefill(prompt.extended([9, 10, 11]), cache)
            cache.truncate(truncate_to)
        generate(engine, prompt, decode, self.spied_policy(cfg, engine, stats), cache=cache)
        return stats

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_greedy_prefill_and_decode(self, strategy):
        stats = self.run(strategy, DecodeConfig(max_new_tokens=8, eos_id=None, seed=0))
        assert {(1, 13, 0), (1, 1, 13)} <= stats["calls"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_beam_steps(self, strategy):
        stats = self.run(strategy, DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=8, eos_id=None))
        assert any(b == 3 for b, _, _ in stats["calls"])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_prefill_onto_truncated_prefix(self, strategy):
        # the cache keeps rows below the span's end, so the prefill starts
        # at base > 0 and its first rows are still unmaskable
        stats = self.run(strategy, DecodeConfig(max_new_tokens=4, eos_id=None), truncate_to=7)
        assert (1, 6, 7) in stats["calls"]


class RecordingWriter(MaskTraceWriter):
    """A trace writer that also keeps every call's arguments."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def write(self, positions, first, layer, masks):
        self.calls.append((positions.copy(), first, layer, masks.copy()))
        super().write(positions, first, layer, masks)


def json_dumps_lines(positions, first, layer, masks) -> str:
    """The trace lines of one policy call as per-row `json.dumps` writes them."""
    T = len(positions)
    return "".join(
        json.dumps({"pos": int(positions[row % T]), "layer": int(layer), "mask": [float(m) for m in masks[row]]}) + "\n"
        for row in range(len(masks)) if row % T >= first
    )


class TestMaskTrace:
    def test_bytes_equal_per_row_json_dumps(self):
        """alpha 0.3 (a non-dyadic float32 repr), prefill calls whose first
        rows precede the vision span's end, and 3-beam decode calls."""
        engine = tiny_engine(seed=2)
        c = engine.config
        cfg = spin(r=0.5, alpha=0.3, lo=1, hi=2)
        fh = io.StringIO()
        writer = RecordingWriter(fh, c.n_layers, c.n_heads, cfg)
        prompt = random_prompt(3, c, n_prefix=2, n_vision=4, n_suffix=3)
        generate(engine, prompt, DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=5, eos_id=None),
                 make_policy(cfg, engine, writer))
        meta = json.dumps({"meta": {"n_layers": c.n_layers, "n_heads": c.n_heads, "spin": cfg.to_dict()}}) + "\n"
        assert fh.getvalue() == meta + "".join(json_dumps_lines(*call) for call in writer.calls)
        assert any(first > 0 for _, first, _, _ in writer.calls)
        assert any(len(masks) == 3 * len(positions) for positions, _, _, masks in writer.calls)
        assert "0.30000001192092896" in fh.getvalue()  # repr of float32(0.3)

    def test_one_write_per_policy_call(self):
        writes = []

        class File(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writer = MaskTraceWriter(File(), 2, 2, spin(hi=2))
        masks = np.array([[1, 0], [0, 1], [1, 0], [1, 1]], np.float32)  # 2 streams x 2 rows
        writer.write(np.array([7, 8]), 1, 2, masks)
        assert writes[1:] == [json_dumps_lines(np.array([7, 8]), 1, 2, masks)]
        assert writes[1].count("\n") == 2

    def test_quick_start_eval_trace_unchanged(self, tmp_path):
        """The README quick-start eval (CHAIR and multi-turn POPE over 20
        images, SPIN r 0.25 on all 4 layers) writes the same mask trace
        bytes as before trace lines were batched per policy call."""
        paths = generate_synthetic_corpus(
            SyntheticCorpusSpec(n_images=20, span_len=48, embed_dim=64, n_objects=24, objects_per_image=3, seed=7),
            tmp_path,
        )
        model = ModelConfig(n_layers=4, n_heads=8, d_model=64, d_ffn=256, vocab_size=len(TokenTable.load(paths.tokens)),
                            max_seq_len=512)
        save_checkpoint(init_checkpoint(model, 1), tmp_path / "model.spnm")
        config = {
            "model": {"checkpoint": "model.spnm"},
            "spin": {"strategy": "image_attention", "r": 0.25, "alpha": 0.0, "layer_range": [1, 4],
                     "apply_to": "all_text_queries"},
            "decode": {"strategy": "greedy", "max_new_tokens": 32, "eos_id": 0, "seed": 7},
            "eval": {"corpus": "corpus.jsonl", "vocab": "vocab.tsv", "tokens": "tokens.json",
                     "chair": True, "pope": True, "pope_mode": "multi_turn", "workers": 1},
            "output": {"report_json": "report.json", "trace_masks": "masks.jsonl"},
        }
        (tmp_path / "run.json").write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eval", "--config", str(tmp_path / "run.json")]) == 0
        digest = hashlib.sha256((tmp_path / "masks.jsonl").read_bytes()).hexdigest()
        assert digest == "2b420ff7d5223a346c2718dccffc75b593ab3bcbdd55809eda7a4fadfcee139e"
