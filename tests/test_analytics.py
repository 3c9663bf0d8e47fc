import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_infer.analytics import (
    aggregate_masks,
    default_layer_grids,
    profile_attention,
    tune_three_stage,
)
from spin_infer.decoding import DecodeConfig
from spin_infer.engine import Engine, MultimodalPrompt
from spin_infer.errors import ConfigError, DataError
from spin_infer.spin import MaskTraceWriter, SpinConfig, SpinPolicy

from helpers import random_prompt, ref_softmax, reference_tune, tiny_config, tiny_engine, uniform_attention_checkpoint


def uniform_engine(**kw):
    config = tiny_config(**kw)
    return Engine(uniform_attention_checkpoint(config, seed=1))


class TestProfile:
    def test_uniform_attention_analytic_fraction(self):
        # vision span is 76 of a 99-token prompt; the single profiled decode
        # step attends uniformly over 100 rows -> vision fraction 0.76 exactly
        engine = uniform_engine(max_seq_len=128)
        vision = np.linspace(-1, 1, 76 * 32, dtype=np.float32).reshape(76, 32)
        prompt = MultimodalPrompt([1] * 10, vision, [2] * 13)
        assert len(prompt) == 99
        dc = DecodeConfig(max_new_tokens=2, eos_id=None, seed=0)
        profile = profile_attention(engine, [prompt], dc)
        assert profile.n_steps == 1
        assert np.allclose(profile.vision, 76 / 100)
        assert np.abs(profile.vision + profile.text - 1.0).max() < 1e-6

    def test_single_layer_single_head_single_step(self):
        engine = tiny_engine(n_layers=1, n_heads=1, d_model=16, d_ffn=16, max_seq_len=64)
        prompt = random_prompt(4, engine.config, n_prefix=1, n_vision=3, n_suffix=2)
        dc = DecodeConfig(max_new_tokens=2, eos_id=None, seed=0)

        observed = []

        def probe(layer, q, keys, logits, positions, layout):
            w = ref_softmax(logits[0, 0, 0] * engine._inv_sqrt_dk)
            observed.append(w[prompt.i_start : prompt.i_end].sum() / w.sum())

        cache = engine.new_cache()
        logits = engine.prefill(prompt, cache)
        tok = int(np.argmax(logits))
        engine.step([tok], cache, prompt.layout(), probe)

        profile = profile_attention(engine, [prompt], dc)
        assert profile.vision[0] == pytest.approx(observed[0], abs=1e-6)

    def test_two_records_weighted_by_step_counts(self):
        engine = tiny_engine(max_seq_len=96)
        p1 = random_prompt(1, engine.config)
        p2 = random_prompt(2, engine.config, n_vision=6)
        dc = DecodeConfig(max_new_tokens=4, eos_id=None, seed=0)

        prof_both = profile_attention(engine, [p1, p2], dc)
        single_1 = profile_attention(engine, [p1], dc)
        single_2 = profile_attention(engine, [p2], dc)
        pooled = (
            single_1.vision * single_1.n_steps + single_2.vision * single_2.n_steps
        ) / (single_1.n_steps + single_2.n_steps)
        assert np.allclose(prof_both.vision, pooled, atol=1e-9)
        assert prof_both.n_steps == single_1.n_steps + single_2.n_steps

    def test_fractions_sum_to_one_every_layer(self):
        engine = tiny_engine()
        prompts = [random_prompt(s, engine.config) for s in range(3)]
        dc = DecodeConfig(max_new_tokens=4, eos_id=None, seed=0)
        profile = profile_attention(engine, prompts, dc)
        assert np.abs(profile.vision + profile.text - 1.0).max() < 1e-6

    def test_empty_corpus_rejected(self):
        engine = tiny_engine()
        with pytest.raises(DataError):
            profile_attention(engine, [], DecodeConfig())
        prompt = random_prompt(4, engine.config)  # one new token comes from the prefill: no step is profiled
        with pytest.raises(DataError, match="saw no generated-token query steps"):
            profile_attention(engine, [prompt], DecodeConfig(max_new_tokens=1, eos_id=None))

    def test_csv_output(self, tmp_path):
        engine = tiny_engine()
        dc = DecodeConfig(max_new_tokens=3, eos_id=None, seed=0)
        profile = profile_attention(engine, [random_prompt(0, engine.config)], dc)
        out = tmp_path / "profile.csv"
        profile.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "layer,vision_fraction,text_fraction"
        assert len(lines) == engine.config.n_layers + 1

    # sha256 of `to_dict()` recorded when a separate attention observer fed
    # the profiler the engine's own weights; the policy-hook probe must
    # reproduce them bit for bit
    PINNED = {
        ("greedy", "spin_off"): "c2931bb941eec026",
        ("greedy", "spin_on"): "fcb2da503fc8c482",
        ("beam_3", "spin_off"): "5b641d7196e627fd",
        ("beam_3", "spin_on"): "7c0d4ef4e8777747",
    }

    @pytest.mark.parametrize("decode, spin", list(PINNED), ids=["-".join(k) for k in PINNED])
    def test_profile_bitwise_pinned(self, decode, spin):
        engine = tiny_engine()
        prompts = [random_prompt(s, engine.config) for s in range(3)]
        dc = DecodeConfig(max_new_tokens=6, eos_id=0, seed=0)
        if decode == "beam_3":
            dc = DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=6, eos_id=0, seed=0)
        policy = SpinPolicy(SpinConfig(r=0.5, layer_hi=2), 2, 4) if spin == "spin_on" else None
        profile = profile_attention(engine, prompts, dc, policy).to_dict()
        digest = hashlib.sha256(json.dumps(profile, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == self.PINNED[decode, spin]


def write_trace(path, n_layers, n_heads, spin_cfg, rows):
    with open(path, "w", encoding="utf-8") as fh:
        writer = MaskTraceWriter(fh, n_layers, n_heads, spin_cfg)
        for pos, layer, mask in rows:
            writer.write(np.array([pos]), 0, layer, np.asarray([mask], np.float32))


class TestAggregateMasks:
    def cfg(self, r=0.5, lo=1, hi=2):
        return SpinConfig(r=r, alpha=0.0, layer_lo=lo, layer_hi=hi)

    def test_r0_trace_is_all_ones(self, tmp_path):
        p = tmp_path / "t.jsonl"
        rows = [(5, 1, [1, 1, 1, 1]), (6, 1, [1, 1, 1, 1])]
        write_trace(p, 2, 4, self.cfg(r=0.0, hi=1), rows)
        hm = aggregate_masks([p])
        assert np.array_equal(hm.values, np.ones((2, 4)))

    def test_single_step_entries_binary(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_trace(p, 2, 4, self.cfg(hi=1), [(5, 1, [1, 0, 0, 1])])
        hm = aggregate_masks([p])
        assert set(np.unique(hm.values)) <= {0.0, 1.0}
        assert hm.values[0].tolist() == [1.0, 0.0, 0.0, 1.0]
        assert hm.values[1].tolist() == [1.0] * 4  # never traced -> exactly 1

    def test_merge_weighted_by_step_counts(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_trace(a, 1, 2, self.cfg(hi=1), [(0, 1, [1, 0])])
        write_trace(b, 1, 2, self.cfg(hi=1), [(0, 1, [0, 1]), (1, 1, [0, 1]), (2, 1, [0, 1])])
        hm = aggregate_masks([a, b])
        # head 0 kept 1 of 4 steps; head 1 kept 3 of 4
        assert hm.values[0].tolist() == [0.25, 0.75]
        assert hm.steps_per_layer.tolist() == [4]

    def test_shape_mismatch_rejected(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_trace(a, 1, 2, self.cfg(hi=1), [(0, 1, [1, 0])])
        write_trace(b, 2, 2, self.cfg(hi=1), [(0, 1, [1, 0])])
        with pytest.raises(DataError):
            aggregate_masks([a, b])
        for layer, mask in [(2, [1, 0]), (1, [1, 0, 1])]:  # a layer or head count its meta line does not have
            write_trace(b, 1, 2, self.cfg(hi=1), [])
            with open(b, "a") as fh:
                fh.write(json.dumps({"pos": 0, "layer": layer, "mask": mask}) + "\n")
            with pytest.raises(DataError, match=":2: trace record shape does not match meta header"):
                aggregate_masks([b])
        b.write_text("\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(b))}: empty mask trace$"):
            aggregate_masks([a, b])
        with pytest.raises(DataError, match="aggregate_masks needs at least one trace file"):
            aggregate_masks([])

    def test_bad_line_reports_lineno(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_trace(p, 1, 2, self.cfg(hi=1), [(0, 1, [1, 0])])
        with open(p, "a") as fh:
            fh.write("not json\n")
        with pytest.raises(DataError, match=":3:"):
            aggregate_masks([p])

    @pytest.mark.parametrize("header", [
        {"meta": {"n_heads": 4}},
        5,
        [1, 2],
        {"spin": {}},
        {"meta": [1]},
        {"meta": {"n_layers": -1, "n_heads": 4}},
        {"meta": {"n_layers": 2, "n_heads": 0}},
        {"meta": {"n_layers": 2.0, "n_heads": 4}},
        {"meta": {"n_layers": True, "n_heads": 4}},
        {"meta": {"n_layers": 2, "n_heads": "4"}},
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        p = tmp_path / "t.jsonl"
        p.write_text("\n" + json.dumps(header) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:2: "):
            aggregate_masks([p])

    @pytest.mark.parametrize("record", [
        {"pos": 5, "layer": 1.7, "mask": [1, 0]},
        {"pos": 5, "layer": True, "mask": [1, 0]},
        {"pos": 5, "layer": "1", "mask": [1, 0]},
        {"pos": 5.0, "layer": 1, "mask": [1, 0]},
        {"pos": False, "layer": 1, "mask": [1, 0]},
        {"pos": "5", "layer": 1, "mask": [1, 0]},
        {"layer": 1, "mask": [1, 0]},
        {"pos": 5, "layer": 1, "mask": ["1", 0]},
        {"pos": 5, "layer": 1, "mask": [True, False]},
        {"pos": 5, "layer": 1, "mask": [1, None]},
        {"pos": 5, "layer": 1, "mask": [[1], [0]]},
    ])
    def test_malformed_record_rejected(self, tmp_path, record):
        p = tmp_path / "t.jsonl"
        write_trace(p, 1, 2, self.cfg(hi=1), [])
        with open(p, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}:2: (pos|layer|mask)(\[\d+\])?: "):
            aggregate_masks([p])

    def test_end_to_end_with_policy(self, tmp_path):
        engine = tiny_engine(seed=2)
        prompt = random_prompt(3, engine.config)
        p = tmp_path / "t.jsonl"
        cfg = self.cfg(r=0.5, lo=1, hi=2)
        trace = MaskTraceWriter(open(p, "w"), engine.config.n_layers, engine.config.n_heads, cfg)
        policy = SpinPolicy(cfg, engine.config.n_layers, engine.config.n_heads, trace)
        from spin_infer.decoding import generate

        generate(engine, prompt, DecodeConfig(max_new_tokens=5, eos_id=None), policy)
        trace.close()
        hm = aggregate_masks([p])
        # every in-range layer keeps exactly K=2 of 4 heads per step
        assert np.allclose(hm.values.sum(axis=1), 2.0)


class TestLayerGrids:
    def test_default_shapes(self):
        grids = default_layer_grids(8)
        assert (1, 4) in grids and (1, 5) in grids and (1, 6) in grids and (1, 8) in grids
        assert (4, 8) in grids and (6, 8) in grids
        assert len(grids) == len(set(grids))

    def test_tiny_stack(self):
        assert default_layer_grids(1) == [(1, 1)]


def stub_eval(table):
    def eval_fn(cfg):
        if cfg is None:
            return table["baseline"]
        key = (cfg.r, cfg.layer_lo, cfg.layer_hi, cfg.alpha)
        return table[key]

    return eval_fn


@st.composite
def tuner_grids(draw) -> dict:
    """tune_three_stage's arguments: grids with repeated entries, and every layer grid or the default ones."""
    n_layers = draw(st.integers(1, 6))
    ranges = st.tuples(st.integers(1, n_layers), st.integers(1, n_layers)).map(lambda t: tuple(sorted(t)))
    return {
        "n_layers": n_layers,
        "r_grid": draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), min_size=1, max_size=4)),
        "alpha_grid": draw(st.lists(st.sampled_from([0.0, 0.05, 0.5, 1.0]), min_size=1, max_size=4)),
        "layer_grids": draw(st.none() | st.lists(ranges, min_size=1, max_size=4)),
        "f1_drop_limit": draw(st.sampled_from([0.0, 0.03, 0.05])),
        "tradeoff_lambda": draw(st.sampled_from([0.0, 1.0, 2.0])),
    }


class TestTuner:
    @settings(max_examples=200, deadline=None)
    @given(grids=tuner_grids(), data=st.data())
    def test_equals_reference_selection(self, grids, data):
        """Metric tables drawn config by config, on each config's first eval, with ties and F1 drops
        on both sides of the limit: the result is the plain reference's, and each distinct config is
        evaluated once, in the order the stages list them."""
        values = st.sampled_from([0.1, 0.2, 0.25, 0.75, 0.77, 0.78, 0.8])
        table, calls = {}, []

        def eval_fn(cfg):
            calls.append(cfg)
            if cfg not in table:
                table[cfg] = {"c_s": data.draw(values), "f1": data.draw(values)}
            return table[cfg]

        result = tune_three_stage(eval_fn, **grids)
        assert calls == [None] + list(dict.fromkeys(e.config for s in result.stages for e in s.entries))
        layer_grids = grids["layer_grids"] or default_layer_grids(grids["n_layers"])
        expected = reference_tune(table.__getitem__, **{**grids, "layer_grids": layer_grids})
        assert json.dumps(result.to_dict()) == json.dumps(expected)

    def test_hand_derived_selection(self):
        # stage 1 at (1,4): r=0.1 violates the 3-point F1 constraint, r=0.2
        # satisfies it; stage 2 prefers layers (1,2); stage 3 trades off C_s
        # against F1 with lambda=1
        table = {
            "baseline": {"c_s": 0.40, "f1": 0.80},
            (0.1, 1, 4, 0.0): {"c_s": 0.20, "f1": 0.76},  # drop 0.04 > 0.03
            (0.2, 1, 4, 0.0): {"c_s": 0.25, "f1": 0.78},  # drop 0.02
            (0.2, 1, 2, 0.0): {"c_s": 0.22, "f1": 0.79},
            (0.2, 2, 4, 0.0): {"c_s": 0.24, "f1": 0.80},
            (0.2, 1, 2, 0.05): {"c_s": 0.23, "f1": 0.795},
        }
        res = tune_three_stage(
            stub_eval(table),
            n_layers=4,
            r_grid=[0.1, 0.2],
            alpha_grid=[0.0, 0.05],
            layer_grids=[(1, 2), (2, 4)],
        )
        s1, s2, s3 = res.stages
        assert s1.selected.config.r == 0.2
        assert (s2.selected.config.layer_lo, s2.selected.config.layer_hi) == (1, 2)
        # objectives: alpha 0 -> 0.22 + (0.80-0.79) = 0.23 ; alpha .05 -> 0.23 + 0.005 = 0.235
        assert s3.selected.config.alpha == 0.0
        assert res.selected == s3.selected.config

    def test_each_distinct_config_evaluated_once(self):
        # stage 2's grid repeats stage 1's full range and stage 3's grid
        # repeats stage 2's alpha 0.0, so those configs come from the memo
        calls: dict = {}

        def eval_fn(cfg):
            calls[cfg] = calls.get(cfg, 0) + 1
            return {"c_s": 0.1, "f1": 0.8}

        res = tune_three_stage(
            eval_fn, n_layers=2, r_grid=[0.25, 0.5], alpha_grid=[0.0, 0.0, 0.5],
            layer_grids=[(1, 2), (2, 2), (1, 2)],
        )
        assert set(calls.values()) == {1}
        evaluated = {e.config for s in res.stages for e in s.entries}
        assert set(calls) == evaluated | {None}
        assert len(calls) == 1 + 2 + 1 + 1  # baseline, two r, one new range, one new alpha

    def test_lambda_zero_selects_min_cs(self):
        table = {
            "baseline": {"c_s": 0.40, "f1": 0.80},
            (0.2, 1, 2, 0.0): {"c_s": 0.22, "f1": 0.10},  # terrible f1
            (0.2, 1, 2, 0.05): {"c_s": 0.23, "f1": 0.80},
        }
        res = tune_three_stage(
            stub_eval(table),
            n_layers=2,
            r_grid=[0.2],
            alpha_grid=[0.0, 0.05],
            layer_grids=[(1, 2)],
            tradeoff_lambda=0.0,
        )
        assert res.selected.alpha == 0.0

    def test_single_config_selected_everywhere(self):
        table = {
            "baseline": {"c_s": 0.4, "f1": 0.8},
            (0.25, 1, 2, 0.0): {"c_s": 0.3, "f1": 0.79},
            (0.25, 1, 2, 0.1): {"c_s": 0.31, "f1": 0.795},
        }
        res = tune_three_stage(
            stub_eval(table), n_layers=2, r_grid=[0.25], alpha_grid=[0.1], layer_grids=[(1, 2)]
        )
        for stage in res.stages:
            assert stage.selected_index == 0
        assert res.selected.r == 0.25
        assert res.selected.alpha == 0.1

    def test_constraint_violator_never_selected_when_alternative_exists(self):
        table = {
            "baseline": {"c_s": 0.40, "f1": 0.80},
            (0.1, 1, 2, 0.0): {"c_s": 0.05, "f1": 0.70},  # best c_s but f1 drop 0.10
            (0.2, 1, 2, 0.0): {"c_s": 0.30, "f1": 0.78},
        }
        res = tune_three_stage(
            stub_eval(table), n_layers=2, r_grid=[0.1, 0.2], alpha_grid=[0.0], layer_grids=[(1, 2)]
        )
        assert res.stages[0].selected.config.r == 0.2

    def test_all_violators_falls_back_to_min_drop(self):
        table = {
            "baseline": {"c_s": 0.40, "f1": 0.80},
            (0.1, 1, 2, 0.0): {"c_s": 0.05, "f1": 0.70},
            (0.2, 1, 2, 0.0): {"c_s": 0.30, "f1": 0.75},
        }
        res = tune_three_stage(
            stub_eval(table), n_layers=2, r_grid=[0.1, 0.2], alpha_grid=[0.0], layer_grids=[(1, 2)]
        )
        assert res.stages[0].selected.config.r == 0.2  # drop 0.05 < 0.10

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            tune_three_stage(stub_eval({}), n_layers=2, r_grid=[], alpha_grid=[0.0])

    @pytest.mark.parametrize("grids, match", [
        ({"r_grid": [0.25, 1.0]}, "spin.r"),
        ({"alpha_grid": [0.0, 2.0]}, "spin.alpha"),
        ({"layer_grids": [(1, 2), (1, 9)]}, r"spin.layer_range \[1, 9\] exceeds n_layers 2"),
        ({"layer_grids": [(2, 1)]}, "spin.layer_range"),
        ({"strategy": "bogus"}, "spin.strategy"),
    ])
    def test_bad_grid_rejected_before_any_eval(self, grids, match):
        calls = []

        def eval_fn(cfg):
            calls.append(cfg)
            return {"c_s": 0.1, "f1": 0.8}

        kw = dict(n_layers=2, r_grid=[0.25], alpha_grid=[0.0], layer_grids=[(1, 2)])
        with pytest.raises(ConfigError, match=match):
            tune_three_stage(eval_fn, **{**kw, **grids})
        assert len(calls) == 0

    def test_deterministic_and_serializable(self):
        table = {
            "baseline": {"c_s": 0.4, "f1": 0.8},
            (0.25, 1, 2, 0.0): {"c_s": 0.3, "f1": 0.79},
        }
        kw = dict(n_layers=2, r_grid=[0.25], alpha_grid=[0.0], layer_grids=[(1, 2)])
        a = tune_three_stage(stub_eval(table), **kw)
        b = tune_three_stage(stub_eval(table), **kw)
        assert a.selected == b.selected
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        # selected config appears in the evaluated list
        assert any(e.config == a.selected for e in a.stages[2].entries)
