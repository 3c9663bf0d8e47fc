import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_infer.decoding import (
    DECODE_STRATEGIES,
    DecodeConfig,
    apply_repetition_penalty,
    generate,
    _nucleus_pick,
)
from spin_infer.engine import Engine
from spin_infer.errors import ConfigError, DataError
from spin_infer.prng import SplitMix64
from spin_infer.spin import SpinConfig, SpinPolicy

from helpers import StubEngine, random_prompt, reference_beam, stub_prompt, tiny_engine

# frozen from the first verified run of tiny_engine(seed=42) / random_prompt(11)
GOLDEN_GREEDY = [38, 38, 63, 53, 55, 25, 53, 55, 25, 53, 55, 13]

# Frozen from the decoder before greedy, nucleus and beam shared one loop:
# tiny_engine(seed=42) / random_prompt(11), max_new_tokens=10, SPIN (when on)
# r=0.5, alpha=0 on layers 1-2. Beam step scores are pinned by the sha256 of
# their JSON, which spells every float exactly.
# (beam_width, eos_id, spin, token_ids, step-score digest, ended_at_eos)
GOLDEN_BEAM = [
    (2, None, False, [39, 38, 38, 38, 38, 63, 53, 55, 25, 53], "9615dce9f1b4f4f5", False),
    (2, None, True, [43, 35, 55, 13, 2, 13, 26, 55, 13, 26], "a6c199167e2cd0c6", False),
    (2, 53, False, [39, 38, 63, 53], "3ce5bd1cf8992b95", True),
    (2, 53, True, [43, 35, 55, 13, 2, 13, 26, 55, 13, 26], "ff573c8875283768", False),
    (3, None, False, [39, 38, 38, 38, 38, 63, 53, 55, 25, 53], "9ae83714bf25e057", False),
    (3, None, True, [17, 17, 34, 55, 13, 38, 6, 5, 38, 6], "391f52f2be05cf44", False),
    (3, 53, False, [39, 38, 63, 53], "95eb7d6a27c113aa", True),
    (3, 53, True, [17, 17, 34, 55, 13, 38, 6, 5, 38, 6], "ae0c01546f92e37a", False),
    (5, None, False, [39, 38, 1, 39, 45, 38, 38, 63, 53, 55], "9e036876ac9d8247", False),
    (5, None, True, [17, 17, 34, 55, 13, 38, 44, 25, 53, 55], "64b6de83e326e383", False),
    (5, 53, False, [39, 38, 1, 39, 38, 39, 38, 63, 55, 25], "65bbd51e3e0be0e0", False),
    (5, 53, True, [17, 17, 34, 55, 13, 38, 44, 25, 53], "d238eba696cbe9d6", True),
]
# (seed, eos_id, spin, token_ids, ended_at_eos) at nucleus_p=0.9
GOLDEN_NUCLEUS = [
    (0, None, False, [52, 7, 38, 33, 39, 33, 63, 43, 16, 62], False),
    (0, None, True, [5, 37, 48, 31, 13, 45, 2, 34, 44, 15], False),
    (0, 53, False, [52, 7, 38, 33, 39, 33, 63, 43, 16, 62], False),
    (0, 53, True, [5, 37, 48, 31, 13, 45, 2, 34, 44, 15], False),
    (1, None, False, [6, 14, 41, 58, 43, 32, 40, 59, 63, 42], False),
    (1, None, True, [24, 29, 53, 16, 31, 0, 51, 5, 55, 53], False),
    (1, 53, False, [6, 14, 41, 58, 43, 32, 40, 59, 63, 42], False),
    (1, 53, True, [24, 29, 53], True),
]
# max_seq_len=14 leaves 5 free slots after the 9-token prompt; eos off,
# beam_width=3, seed=4: (token_ids, step-score digest)
GOLDEN_TRUNCATED = {
    "greedy": ([38, 38, 63, 53, 55, 25], None),
    "beam": ([39, 38, 38, 38, 38, 63], "a032e883f6989abc"),
    "nucleus": ([7, 52, 5, 17, 58, 21], None),
}


def score_digest(scores) -> str:
    return hashlib.sha256(json.dumps(scores).encode()).hexdigest()[:16]


def golden_setup(spin_on: bool, **engine_kw):
    engine = tiny_engine(seed=42, **engine_kw)
    cfg = SpinConfig(r=0.5, alpha=0.0, layer_lo=1, layer_hi=2)
    policy = SpinPolicy(cfg, engine.config.n_layers, engine.config.n_heads) if spin_on else None
    return engine, random_prompt(11, engine.config), policy


class TestDecodeConfig:
    @pytest.mark.parametrize("kw", [
        {"strategy": "bogus"}, {"beam_width": 0}, {"nucleus_p": 0.0},
        {"nucleus_p": 1.5}, {"repetition_penalty": 0.5}, {"max_new_tokens": 0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            DecodeConfig(**kw)

    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.beam_width == 5
        assert cfg.repetition_penalty == 1.0


class TestRepetitionPenalty:
    def test_identity_at_one(self):
        z = np.array([1.0, -2.0, 0.5], np.float32)
        out = apply_repetition_penalty(z, [0, 1], 1.0)
        assert np.array_equal(out, z)

    def test_positive_logit_divided(self):
        z = np.array([2.0, 3.0], np.float32)
        out = apply_repetition_penalty(z, [0], 2.0)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == 3.0

    def test_negative_logit_multiplied(self):
        z = np.array([-2.0, 3.0], np.float32)
        out = apply_repetition_penalty(z, [0], 2.0)
        assert out[0] == pytest.approx(-4.0)
        assert out[1] == 3.0

    def test_only_context_tokens_touched(self):
        z = np.arange(-3, 3, dtype=np.float32)
        out = apply_repetition_penalty(z, [1, 4, 4], 1.5)
        untouched = [i for i in range(6) if i not in (1, 4)]
        assert np.array_equal(out[untouched], z[untouched])

    def test_discourages_repeat(self):
        # dominant token gets penalized below the runner-up once seen; after
        # both are in context, 2/2=1.0 beats 1.9/2=0.95 again
        eng = StubEngine([2.0, 1.9, -5.0])
        cfg = DecodeConfig(max_new_tokens=4, eos_id=None, repetition_penalty=2.0)
        res = generate(eng, stub_prompt(), cfg)
        assert res.token_ids == [0, 1, 0, 0]


class TestGreedy:
    def test_dominant_logit_repeats_until_cap(self):
        eng = StubEngine([0.0, 5.0, 1.0])
        cfg = DecodeConfig(max_new_tokens=6, eos_id=None)
        res = generate(eng, stub_prompt(), cfg)
        assert res.token_ids == [1] * 6
        assert not res.ended_at_eos

    def test_stops_at_eos(self):
        eng = StubEngine([0.0, 5.0, 1.0], after={1: np.array([9.0, 0.0, 0.0])})
        cfg = DecodeConfig(max_new_tokens=6, eos_id=0)
        res = generate(eng, stub_prompt(), cfg)
        assert res.token_ids == [1, 0]
        assert res.ended_at_eos

    def test_tie_breaks_to_lowest_id(self):
        eng = StubEngine([3.0, 3.0, 3.0])
        cfg = DecodeConfig(max_new_tokens=2, eos_id=None)
        assert generate(eng, stub_prompt(), cfg).token_ids == [0, 0]

    def test_deterministic_repeat(self):
        engine = tiny_engine(seed=42)
        prompt = random_prompt(11, engine.config)
        cfg = DecodeConfig(max_new_tokens=12, eos_id=0, seed=0)
        a = generate(engine, prompt, cfg)
        b = generate(engine, prompt, cfg)
        assert a.token_ids == b.token_ids

    def test_golden_sequence(self):
        engine = tiny_engine(seed=42)
        prompt = random_prompt(11, engine.config)
        cfg = DecodeConfig(max_new_tokens=12, eos_id=0, seed=0)
        assert generate(engine, prompt, cfg).token_ids == GOLDEN_GREEDY

    def test_latencies_measured(self):
        engine = tiny_engine(seed=1)
        prompt = random_prompt(2, engine.config)
        cfg = DecodeConfig(max_new_tokens=5, eos_id=None)
        res = generate(engine, prompt, cfg)
        assert len(res.token_ids) == 5
        assert res.prefill_latency > 0.0
        assert res.decode_latency > 0.0


class TestBeam:
    def test_width_one_equals_greedy(self):
        engine = tiny_engine(seed=6)
        for pseed in range(5):
            prompt = random_prompt(pseed, engine.config)
            g = generate(engine, prompt, DecodeConfig(max_new_tokens=8, eos_id=0))
            b = generate(engine, prompt, DecodeConfig(strategy="beam", beam_width=1,
                                                      max_new_tokens=8, eos_id=0))
            assert b.token_ids == g.token_ids, pseed

    def test_finds_higher_joint_probability(self):
        # step 1: p(A)=0.6, p(B)=0.4 ; after A: p(C)=0.3 best ; after B: p(D)=0.9
        # greedy takes A->C (0.18), beam width 2 must find B->D (0.36)
        first = np.log(np.array([0.6, 0.4, 1e-9, 1e-9], np.float64)).astype(np.float32)
        after = {
            0: np.log(np.array([1e-9, 1e-9, 0.3, 0.25], np.float64)).astype(np.float32),
            1: np.log(np.array([1e-9, 1e-9, 0.1, 0.9], np.float64)).astype(np.float32),
        }
        eng = StubEngine(first, after)
        cfg = DecodeConfig(strategy="beam", beam_width=2, max_new_tokens=2, eos_id=None)
        res = generate(eng, stub_prompt(), cfg)

        # brute-force oracle over every 2-token sequence
        def logp(seq):
            z0 = first.astype(np.float64)
            p0 = np.exp(z0 - z0.max()) / np.exp(z0 - z0.max()).sum()
            z1 = after[seq[0]].astype(np.float64)
            p1 = np.exp(z1 - z1.max()) / np.exp(z1 - z1.max()).sum()
            return math.log(p0[seq[0]]) + math.log(p1[seq[1]])

        best = max(((a, b) for a in (0, 1) for b in range(4)), key=logp)
        assert tuple(res.token_ids) == best == (1, 3)

    def test_all_beams_eos_at_step_one(self):
        eng = StubEngine([9.0, 0.0, 0.0])
        cfg = DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=5, eos_id=0)
        res = generate(eng, stub_prompt(), cfg)
        assert res.token_ids == [0]
        assert res.ended_at_eos

    def test_step_scores_non_increasing(self):
        engine = tiny_engine(seed=3)
        prompt = random_prompt(4, engine.config)
        cfg = DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=6, eos_id=None)
        res = generate(engine, prompt, cfg)
        assert res.beam_step_scores
        for scores in res.beam_step_scores:
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_deterministic(self):
        engine = tiny_engine(seed=3)
        prompt = random_prompt(4, engine.config)
        cfg = DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=6, eos_id=0)
        assert generate(engine, prompt, cfg).token_ids == generate(engine, prompt, cfg).token_ids


class TestNucleus:
    def test_singleton_nucleus_equals_greedy(self):
        engine = tiny_engine(seed=8)
        prompt = random_prompt(2, engine.config)
        g = generate(engine, prompt, DecodeConfig(max_new_tokens=8, eos_id=0))
        n = generate(engine, prompt, DecodeConfig(strategy="nucleus", nucleus_p=1e-6,
                                                  max_new_tokens=8, eos_id=0, seed=123))
        assert n.token_ids == g.token_ids

    def test_seeded_reproducibility(self):
        engine = tiny_engine(seed=8)
        prompt = random_prompt(2, engine.config)
        cfg = DecodeConfig(strategy="nucleus", nucleus_p=0.95, max_new_tokens=10, eos_id=0, seed=77)
        assert generate(engine, prompt, cfg).token_ids == generate(engine, prompt, cfg).token_ids

    def test_different_seeds_usually_differ(self):
        engine = tiny_engine(seed=8)
        prompt = random_prompt(2, engine.config)
        outs = {
            tuple(generate(engine, prompt, DecodeConfig(strategy="nucleus", nucleus_p=1.0,
                                                        max_new_tokens=10, eos_id=None,
                                                        seed=s)).token_ids)
            for s in range(5)
        }
        assert len(outs) > 1

    def test_full_distribution_frequencies(self):
        # rigged 3-token distribution sampled 10k times at p=1.0
        target = np.array([0.5, 0.3, 0.2])
        logits = np.log(target).astype(np.float32)
        rng = SplitMix64(5)
        counts = np.zeros(3)
        for _ in range(10_000):
            counts[_nucleus_pick(logits, 1.0, rng)] += 1
        freq = counts / counts.sum()
        assert np.abs(freq - target).max() < 0.02

    @given(seed=st.integers(min_value=0, max_value=2**32), p=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_nucleus_set_minimality(self, seed, p):
        rng = SplitMix64(seed)
        logits = (6 * rng.uniforms(12) - 3).astype(np.float32)
        z = logits.astype(np.float64)
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        m = int(np.searchsorted(csum, p, side="left")) + 1
        m = min(m, len(order))
        # removing the last included token drops the mass below p
        if m > 1:
            assert csum[m - 2] < p
        assert csum[m - 1] >= p or m == len(order)
        # the pick must come from that minimal set
        pick = _nucleus_pick(logits, p, SplitMix64(seed + 1))
        assert pick in set(order[:m].tolist())


class TestGolden:
    @pytest.mark.parametrize("width, eos_id, spin_on, tokens, digest, at_eos", GOLDEN_BEAM)
    def test_beam(self, width, eos_id, spin_on, tokens, digest, at_eos):
        engine, prompt, policy = golden_setup(spin_on)
        cfg = DecodeConfig(strategy="beam", beam_width=width, max_new_tokens=10, eos_id=eos_id)
        res = generate(engine, prompt, cfg, policy)
        assert res.token_ids == tokens
        assert len(res.beam_step_scores) == 10
        assert score_digest(res.beam_step_scores) == digest
        assert res.ended_at_eos is at_eos
        assert not res.truncated

    @pytest.mark.parametrize("seed, eos_id, spin_on, tokens, at_eos", GOLDEN_NUCLEUS)
    def test_nucleus(self, seed, eos_id, spin_on, tokens, at_eos):
        engine, prompt, policy = golden_setup(spin_on)
        cfg = DecodeConfig(strategy="nucleus", nucleus_p=0.9, max_new_tokens=10, eos_id=eos_id, seed=seed)
        res = generate(engine, prompt, cfg, policy)
        assert res.token_ids == tokens
        assert res.beam_step_scores is None
        assert res.ended_at_eos is at_eos
        assert not res.truncated

    @pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
    def test_truncated(self, strategy):
        engine, prompt, _ = golden_setup(False, max_seq_len=14)
        cfg = DecodeConfig(strategy=strategy, beam_width=3, max_new_tokens=10, eos_id=None, seed=4)
        res = generate(engine, prompt, cfg)
        tokens, digest = GOLDEN_TRUNCATED[strategy]
        assert res.token_ids == tokens
        assert (res.beam_step_scores and score_digest(res.beam_step_scores)) == digest
        assert res.truncated
        assert not res.ended_at_eos


class TestStepCounts:
    @pytest.mark.parametrize("cfg, streams", [
        (DecodeConfig(max_new_tokens=10, eos_id=None), 1),
        (DecodeConfig(strategy="nucleus", max_new_tokens=10, eos_id=None), 1),
        (DecodeConfig(strategy="beam", beam_width=1, max_new_tokens=10, eos_id=None), 1),
        (DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=10, eos_id=None), 3),
    ], ids=["greedy", "nucleus", "beam1", "beam3"])
    def test_one_step_per_token_position(self, monkeypatch, cfg, streams):
        calls = []
        step = Engine.step

        def counting_step(engine, tokens, *args, **kwargs):
            calls.append(len(tokens))
            return step(engine, tokens, *args, **kwargs)

        monkeypatch.setattr(Engine, "step", counting_step)
        engine, prompt, _ = golden_setup(False)
        generate(engine, prompt, cfg)
        # the tenth token is never fed back; each step carries every live beam
        assert calls == [streams] * 9


class TestBatchedBeamMatchesPlainPath:
    """`generate` steps all live beams as one batch over a stream-stacked
    cache; `reference_beam` steps each beam alone on its own cache copy."""

    @staticmethod
    def check(engine, prompt, cfg, policy=None):
        res = generate(engine, prompt, cfg, policy)
        tokens, scores, at_eos, truncated = reference_beam(engine, prompt, cfg, policy)
        assert res.token_ids == tokens
        assert res.ended_at_eos is at_eos
        assert res.truncated is truncated
        assert [len(s) for s in res.beam_step_scores] == [len(s) for s in scores]
        for got, want in zip(res.beam_step_scores, scores):
            assert np.allclose(got, want, rtol=0, atol=1e-4)
        return res

    @pytest.mark.parametrize("width", [2, 3, 5])
    @pytest.mark.parametrize("eos_id", [None, 53])
    @pytest.mark.parametrize("strategy", [None, "image_attention", "total_attention", "query_norm", "key_norm"])
    def test_matches(self, width, eos_id, strategy):
        engine, prompt, _ = golden_setup(False)
        policy = None
        if strategy is not None:
            spin_cfg = SpinConfig(strategy=strategy, r=0.5, alpha=0.0, layer_lo=1, layer_hi=2)
            policy = SpinPolicy(spin_cfg, engine.config.n_layers, engine.config.n_heads)
        cfg = DecodeConfig(strategy="beam", beam_width=width, max_new_tokens=10, eos_id=eos_id)
        self.check(engine, prompt, cfg, policy)

    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_truncated(self, width):
        engine, prompt, _ = golden_setup(False, max_seq_len=14)
        cfg = DecodeConfig(strategy="beam", beam_width=width, max_new_tokens=10, eos_id=None)
        assert self.check(engine, prompt, cfg).truncated

    def test_criterion_6_width(self):
        # d_model 256 at width 5: the batched rows differ from one-row steps
        # in the last ulps, the beams must not
        engine = tiny_engine(seed=123, n_layers=2, n_heads=8, d_model=256, d_ffn=512, vocab_size=512,
                             max_seq_len=128)
        prompt = random_prompt(55, engine.config, n_prefix=0, n_vision=48, n_suffix=16)
        self.check(engine, prompt, DecodeConfig(strategy="beam", beam_width=5, max_new_tokens=12, eos_id=None))

    def test_criterion_6_ffn_width(self):
        # d_ffn 1024 at width 5: each step's w1 and w2 products, and the
        # 16-row prefill's, cross OpenBLAS's small-matrix limit and run planned;
        # tokens and scores are pinned from before the plan existed
        engine = tiny_engine(seed=123, n_layers=2, n_heads=8, d_model=256, d_ffn=1024, vocab_size=512,
                             max_seq_len=64)
        prompt = random_prompt(55, engine.config, n_prefix=0, n_vision=8, n_suffix=8)
        res = self.check(engine, prompt, DecodeConfig(strategy="beam", beam_width=5, max_new_tokens=12, eos_id=None))
        assert res.token_ids == [39, 456, 222, 241, 461, 461, 39, 39, 39, 301, 446, 39]
        assert score_digest(res.beam_step_scores) == "4a536f32a3121026"


class TestNonFiniteLogits:
    @pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prefill_logits(self, strategy, bad):
        eng = StubEngine([0.0, bad, 1.0])
        cfg = DecodeConfig(strategy=strategy, beam_width=2, max_new_tokens=4, eos_id=None)
        with pytest.raises(DataError, match="non-finite logits .* at position 0"):
            generate(eng, stub_prompt(), cfg)

    @pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
    def test_step_logits(self, strategy):
        # every strategy's first token is 1; the step that feeds it (at
        # position 1, after the one-row prompt) returns a NaN
        eng = StubEngine([0.0, 9.0, 1.0], after={1: np.array([0.0, np.nan, 1.0])})
        cfg = DecodeConfig(strategy=strategy, beam_width=2, max_new_tokens=4, eos_id=None)
        with pytest.raises(DataError, match="non-finite logits .* at position 1"):
            generate(eng, stub_prompt(), cfg)


class TestGenerateDispatch:
    def test_respects_max_new_tokens(self):
        engine = tiny_engine(seed=1)
        prompt = random_prompt(1, engine.config)
        for strategy in ("greedy", "beam", "nucleus"):
            cfg = DecodeConfig(strategy=strategy, beam_width=2, max_new_tokens=4, eos_id=None)
            res = generate(engine, prompt, cfg)
            assert len(res.token_ids) == 4, strategy

    def test_eos_respected(self):
        engine = tiny_engine(seed=1)
        prompt = random_prompt(1, engine.config)
        for strategy in ("greedy", "beam", "nucleus"):
            cfg = DecodeConfig(strategy=strategy, beam_width=2, max_new_tokens=40, eos_id=0, seed=3)
            res = generate(engine, prompt, cfg)
            if res.ended_at_eos:
                assert res.token_ids[-1] == 0
                assert 0 not in res.token_ids[:-1]
            else:
                assert len(res.token_ids) == 40

    def test_truncation_flag_on_overflow(self):
        engine = tiny_engine(seed=1, max_seq_len=12)
        prompt = random_prompt(1, engine.config, n_prefix=2, n_vision=4, n_suffix=3)
        cfg = DecodeConfig(max_new_tokens=20, eos_id=None)
        res = generate(engine, prompt, cfg)
        assert res.truncated
        assert len(res.token_ids) == 12 - 9 + 1  # one sampled token per free slot + final sample


class TestGenerateOntoCache:
    """`generate` with a cache that holds the prompt's first rows."""

    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("nucleus", 1), ("beam", 3)])
    def test_reuse_matches_new_cache_and_truncates_to_prompt(self, strategy, width):
        engine = tiny_engine(seed=1)
        first = random_prompt(1, engine.config)
        second = first.extended([5, 6, 7])
        cfg = DecodeConfig(strategy=strategy, beam_width=width, max_new_tokens=6, eos_id=None, seed=2)
        cache = engine.new_cache(width)
        generate(engine, first, cfg, cache=cache)
        assert (cache.length, cache.shared) == (len(first), len(first))
        got = generate(engine, second, cfg, cache=cache)
        assert cache.length == len(second)
        assert got.token_ids == generate(engine, second, cfg).token_ids

    def test_cache_with_fewer_streams_than_beam_width_rejected(self):
        engine = tiny_engine(seed=1)
        cfg = DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=2)
        with pytest.raises(ConfigError, match="fewer than beam_width 3"):
            generate(engine, random_prompt(1, engine.config), cfg, cache=engine.new_cache(2))
