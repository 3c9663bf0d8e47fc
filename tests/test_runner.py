import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spin_infer
from spin_infer.config import load_run_config
from spin_infer.corpus import SyntheticCorpusSpec, TokenTable, generate_synthetic_corpus
from spin_infer import runner
from spin_infer.engine import Engine
from spin_infer.errors import ConfigError, DataError
from spin_infer.model import ModelConfig, init_checkpoint, save_checkpoint
from spin_infer.runner import IN_FLIGHT, load_eval_inputs, run_eval, spin_eval_fn
from spin_infer.spin import SpinPolicy

from helpers import reference_eval, reference_eval_record


def strip_timing(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out.pop("timing")
    out["metrics"].pop("throughput_tps")
    return out


def report_digest(report: dict) -> str:
    """sha256 of the report less its timing, throughput and config."""
    out = strip_timing(report)
    out.pop("config")
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]


def small_checkpoint(workspace, path):
    """A model too small for multi-turn POPE contexts."""
    from spin_infer.corpus import TokenTable
    from spin_infer.model import ModelConfig, init_checkpoint, save_checkpoint

    table = TokenTable.load(workspace.tokens)
    small = ModelConfig(n_layers=1, n_heads=2, d_model=24, d_ffn=16,
                        vocab_size=len(table), max_seq_len=40)
    save_checkpoint(init_checkpoint(small, 0), path)
    return path


class TestRunEval:
    def test_basic_report_shape(self, workspace, tmp_path):
        cfg_path = workspace.run_config(
            tmp_path / "run.json",
            output={"report_json": str(tmp_path / "r.json"), "report_csv": str(tmp_path / "r.csv")},
        )
        cfg = load_run_config(cfg_path, environ={})
        report = run_eval(cfg)
        assert report["metrics"]["chair"] is not None
        assert report["metrics"]["pope"] is not None
        assert report["metrics"]["n_records"] == 6
        assert report["metrics"]["n_failed_records"] == 0
        assert set(report["generations"]) == {f"img{i:04d}" for i in range(6)}
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.csv").read_text().startswith("metric,value")
        assert any("per-caption" in n for n in report["metrics"]["notes"])

    def test_report_json_roundtrips(self, workspace, tmp_path):
        cfg_path = workspace.run_config(
            tmp_path / "run.json", output={"report_json": str(tmp_path / "r.json")}
        )
        report = run_eval(load_run_config(cfg_path, environ={}))
        text = (tmp_path / "r.json").read_text()
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed)) == parsed
        assert parsed["config"] == report["config"]

    def test_spin_r0_matches_baseline_except_timing(self, workspace, tmp_path):
        base_cfg = workspace.run_config(tmp_path / "a.json")
        spin_cfg = workspace.run_config(
            tmp_path / "b.json",
            spin={"r": 0.0, "alpha": 0.0, "layer_range": [1, 2]},
        )
        base = run_eval(load_run_config(base_cfg, environ={}), write_outputs=False)
        spun = run_eval(load_run_config(spin_cfg, environ={}), write_outputs=False)
        a, b = strip_timing(base), strip_timing(spun)
        a.pop("config")
        b.pop("config")
        assert a == b

    def test_spin_changes_generations(self, workspace, tmp_path):
        base_cfg = workspace.run_config(tmp_path / "a.json")
        spin_cfg = workspace.run_config(
            tmp_path / "b.json",
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]},
        )
        base = run_eval(load_run_config(base_cfg, environ={}), write_outputs=False)
        spun = run_eval(load_run_config(spin_cfg, environ={}), write_outputs=False)
        assert base["generations"] != spun["generations"]

    def test_workers_do_not_change_outputs(self, workspace, tmp_path):
        one = workspace.run_config(tmp_path / "a.json")
        many = workspace.run_config(tmp_path / "b.json", eval={"workers": 4})
        r1 = run_eval(load_run_config(one, environ={}), write_outputs=False)
        r4 = run_eval(load_run_config(many, environ={}), write_outputs=False)
        assert r1["generations"] == r4["generations"]
        assert r1["metrics"]["chair"] == r4["metrics"]["chair"]
        assert r1["metrics"]["pope"] == r4["metrics"]["pope"]

    def test_embedded_config_reproduces_generations(self, workspace, tmp_path):
        cfg_path = workspace.run_config(
            tmp_path / "run.json", output={"report_json": str(tmp_path / "r.json")}
        )
        first = run_eval(load_run_config(cfg_path, environ={}))
        embedded = json.loads((tmp_path / "r.json").read_text())["config"]
        replay_path = tmp_path / "replay.json"
        embedded["output"] = {}
        replay_path.write_text(json.dumps(embedded))
        second = run_eval(load_run_config(replay_path, environ={}), write_outputs=False)
        assert first["generations"] == second["generations"]

    def test_trace_masks_consumable(self, workspace, tmp_path):
        trace_path = tmp_path / "masks.jsonl"
        cfg_path = workspace.run_config(
            tmp_path / "run.json",
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 1]},
            output={"trace_masks": str(trace_path)},
        )
        run_eval(load_run_config(cfg_path, environ={}))
        from spin_infer.analytics import aggregate_masks

        hm = aggregate_masks([trace_path])
        assert hm.n_layers == 2 and hm.n_heads == 4
        assert (hm.values[1] == 1.0).all()  # layer 2 out of range
        assert (hm.values[0] < 1.0).any()

    def test_non_finite_vision_record_fails_and_is_not_scored(self, workspace, tmp_path):
        lines = workspace.corpus.read_text().splitlines()
        bad = json.loads(lines[2])
        bad["vision_embeddings"][0][0] = float("nan")
        nan_corpus = tmp_path / "nan.jsonl"
        nan_corpus.write_text("\n".join(lines[:2] + [json.dumps(bad)] + lines[3:]) + "\n")
        without = tmp_path / "without.jsonl"
        without.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        reports = [
            run_eval(load_run_config(
                workspace.run_config(tmp_path / f"{name}.json", eval={"corpus": str(path)}), environ={}
            ), write_outputs=False)
            for name, path in (("nan", nan_corpus), ("without", without))
        ]
        got, want = (strip_timing(r)["metrics"] for r in reports)
        assert list(reports[0]["failures"]) == [bad["id"]]
        assert "DataError" in reports[0]["failures"][bad["id"]]
        assert bad["id"] not in reports[0]["generations"]
        assert got.pop("n_failed_records") == 1
        want.pop("n_failed_records")
        assert got == want  # CHAIR and POPE cover the five good records only

    def test_non_finite_logits_record_fails_and_is_not_scored(self, workspace, tmp_path, monkeypatch):
        lines = workspace.corpus.read_text().splitlines()
        bad = json.loads(lines[2])
        bad_vision = np.asarray(bad["vision_embeddings"], np.float32)
        prefill = Engine.prefill

        def nan_prefill(engine, prompt, cache, policy=None, return_all_logits=False):
            out = prefill(engine, prompt, cache, policy, return_all_logits)
            return np.full_like(out, np.nan) if np.array_equal(prompt.vision, bad_vision) else out

        without = tmp_path / "without.jsonl"
        without.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        want = strip_timing(run_eval(load_run_config(
            workspace.run_config(tmp_path / "without.json", eval={"corpus": str(without)}), environ={}
        ), write_outputs=False))["metrics"]
        monkeypatch.setattr(Engine, "prefill", nan_prefill)
        report = run_eval(load_run_config(workspace.run_config(tmp_path / "nan.json"), environ={}),
                          write_outputs=False)
        got = strip_timing(report)["metrics"]
        assert list(report["failures"]) == [bad["id"]]
        assert "DataError" in report["failures"][bad["id"]]
        assert "non-finite logits" in report["failures"][bad["id"]]
        assert bad["id"] not in report["generations"]
        assert got.pop("n_failed_records") == 1
        want.pop("n_failed_records")
        assert got == want  # CHAIR and POPE cover the five good records only

    def test_eval_section_required(self, workspace, tmp_path):
        cfg_path = workspace.run_config(tmp_path / "run.json", eval=None)
        cfg = load_run_config(cfg_path, environ={})
        with pytest.raises(ConfigError, match="eval"):
            run_eval(cfg)

    def test_vocab_size_mismatch_rejected(self, workspace, tmp_path):
        import numpy as np

        from spin_infer.model import ModelConfig, init_checkpoint, save_checkpoint

        wrong = ModelConfig(n_layers=1, n_heads=2, d_model=24, d_ffn=16,
                            vocab_size=999, max_seq_len=64)
        ckpt = tmp_path / "wrong.spnm"
        save_checkpoint(init_checkpoint(wrong, 0), ckpt)
        cfg_path = workspace.run_config(tmp_path / "run.json", model={"checkpoint": str(ckpt)})
        with pytest.raises(ConfigError, match="vocab_size"):
            run_eval(load_run_config(cfg_path, environ={}))

    def test_single_turn_mode(self, workspace, tmp_path):
        multi = workspace.run_config(tmp_path / "a.json")
        single = workspace.run_config(tmp_path / "b.json", eval={"pope_mode": "single_turn"})
        rm = run_eval(load_run_config(multi, environ={}), write_outputs=False)
        rs = run_eval(load_run_config(single, environ={}), write_outputs=False)
        # same first-turn answer, contexts diverge on later turns
        for rid in rm["generations"]:
            assert rm["generations"][rid]["pope"][0] == rs["generations"][rid]["pope"][0]
        assert rm["generations"] != rs["generations"]

    def test_throughput_pools_every_generation(self, workspace, tmp_path):
        cfg_path = workspace.run_config(tmp_path / "run.json", eval={"max_records": 3})
        report = run_eval(load_run_config(cfg_path, environ={}), write_outputs=False)
        timing = report["timing"]
        n_ids = sum(len(g["caption"]) + sum(map(len, g["pope"])) for g in report["generations"].values())
        assert timing["generated_tokens"] == n_ids
        assert report["metrics"]["throughput_tps"] == timing["generated_tokens"] / timing["decode_s"]

    def test_max_records_limits(self, workspace, tmp_path):
        cfg_path = workspace.run_config(tmp_path / "run.json", eval={"max_records": 2})
        report = run_eval(load_run_config(cfg_path, environ={}), write_outputs=False)
        assert report["metrics"]["n_records"] == 2

    def test_pope_overflow_skips_rest_of_image(self, workspace, tmp_path):
        # a model too small for multi-turn contexts: overflow, records still succeed
        ckpt = small_checkpoint(workspace, tmp_path / "small.spnm")
        cfg_path = workspace.run_config(
            tmp_path / "run.json",
            model={"checkpoint": str(ckpt)},
            decode={"strategy": "greedy", "max_new_tokens": 4, "eos_id": 0, "seed": 5},
        )
        report = run_eval(load_run_config(cfg_path, environ={}), write_outputs=False)
        assert report["pope_skipped"] > 0
        assert report["metrics"]["n_records"] == 6


class TestGoldenReport:
    """Reports recorded before the runner kept `generate`'s results directly;
    everything but timing must stay byte-identical."""

    CASES = {
        "default": ({}, "fc7597dbfb98df08"),
        "spin": ({"spin": {"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}}, "712cae6d3b4b60bc"),
        "single_turn_workers_3": ({"eval": {"pope_mode": "single_turn", "workers": 3}}, "f524f5ce8a49ac8d"),
        "no_chair": ({"eval": {"chair": False}}, "a1e882ff0d43fd51"),
        "no_pope": ({"eval": {"pope": False}}, "056cdc879660400c"),
        "pope_overflow": ({"decode": {"max_new_tokens": 4}}, "53b08163b8af2c61"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_report_unchanged(self, workspace, tmp_path, case):
        overrides, digest = self.CASES[case]
        if case == "pope_overflow":
            ckpt = small_checkpoint(workspace, tmp_path / "small.spnm")
            overrides = {**overrides, "model": {"checkpoint": str(ckpt)}}
        cfg = load_run_config(workspace.run_config(tmp_path / "run.json", **overrides), environ={})
        report = run_eval(cfg, write_outputs=False)
        assert report_digest(report) == digest


SPIN_ON = {"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}
REUSE_CASES = {
    "greedy_multi_turn": {},
    "greedy_single_turn": {"eval": {"pope_mode": "single_turn"}},
    "beam_2": {"decode": {"strategy": "beam", "beam_width": 2}},
    "beam_3_single_turn": {"decode": {"strategy": "beam", "beam_width": 3}, "eval": {"pope_mode": "single_turn"}},
    "nucleus": {"decode": {"strategy": "nucleus", "nucleus_p": 0.8}},
    "spin_beam_3": {"decode": {"strategy": "beam", "beam_width": 3}, "spin": SPIN_ON},
    "spin_nucleus_single_turn": {"decode": {"strategy": "nucleus"}, "eval": {"pope_mode": "single_turn"},
                                 "spin": SPIN_ON},
    **{
        f"spin_{strategy}_{apply_to}": {"spin": {**SPIN_ON, "strategy": strategy, "apply_to": apply_to}}
        for strategy in ("image_attention", "total_attention", "query_norm", "key_norm")
        for apply_to in ("all_text_queries", "generated_text_queries_only")
    },
    "pope_overflow": {"decode": {"max_new_tokens": 4}},
}


class TestPrefixReuse:
    """A record's requests share one KV cache and each POPE turn prefills
    only the rows its prompt adds; the plain path gives every request a new
    cache and prefills the whole prompt. Both must generate the same."""

    def run(self, workspace, tmp_path, overrides):
        cfg = load_run_config(workspace.run_config(tmp_path / "run.json", **overrides), environ={})
        inputs = load_eval_inputs(cfg, "eval")
        mc = inputs.engine.config
        policy = SpinPolicy(cfg.spin, mc.n_layers, mc.n_heads) if cfg.spin else None
        refs = {rec.record_id: reference_eval_record(inputs.engine, rec, cfg, inputs.table, policy)
                for rec in inputs.records}
        return run_eval(cfg, write_outputs=False, inputs=inputs), refs, inputs, policy

    @pytest.mark.parametrize("case", list(REUSE_CASES))
    def test_same_generations_as_re_prefill(self, workspace, tmp_path, case):
        overrides = REUSE_CASES[case]
        if case == "pope_overflow":
            overrides = {**overrides, "model": {"checkpoint": str(small_checkpoint(workspace, tmp_path / "s.spnm"))}}
        report, refs, _, _ = self.run(workspace, tmp_path, overrides)
        assert report["metrics"]["n_failed_records"] == 0
        for rid, (_, outs, _) in refs.items():
            assert report["generations"][rid] == {"caption": outs[0], "pope": outs[1:]}, rid
        assert report["pope_skipped"] == sum(skipped for _, _, skipped in refs.values())
        if case == "pope_overflow":
            assert report["pope_skipped"] > 0

    @pytest.mark.parametrize("case", ["greedy_multi_turn", "greedy_single_turn", "spin_image_attention_all_text_queries"])
    def test_greedy_answers_are_re_prefill_argmax(self, workspace, tmp_path, case):
        """Re-prefill prompt_j + tokens[:-1] on a new cache: every greedy
        token of every request is its position's argmax, up to a near-tie
        of 1e-4 (the tolerance of test_prefill_matches_stepwise_tokens)."""
        report, refs, inputs, policy = self.run(workspace, tmp_path, REUSE_CASES[case])
        engine = inputs.engine
        for rid, (prompts, _, _) in refs.items():
            gen = report["generations"][rid]
            for prompt, tokens in zip(prompts, [gen["caption"]] + gen["pope"]):
                logits = engine.prefill(prompt.extended(tokens[:-1]), engine.new_cache(), policy,
                                        return_all_logits=True)[len(prompt) - 1 :]
                picked = logits[np.arange(len(tokens)), tokens]
                assert np.all(picked >= logits.max(axis=1) - 1e-4), rid


class TestRecordsInFlight:
    """Records decoded together, one batched step per token, give the report
    and mask trace of one record at a time."""

    def test_same_report_and_trace_as_one_record_at_a_time(self, workspace, tmp_path, monkeypatch):
        lines = [json.loads(line) for line in workspace.corpus.read_text().splitlines()]
        flipped = [{**rec, "id": f"{rec['id']}b", "vision_embeddings": (-np.array(rec["vision_embeddings"])).tolist()}
                   for rec in lines]
        records = lines + flipped
        records[5]["vision_embeddings"][0][0] = float("nan")
        assert len(records) > IN_FLIGHT + 1
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        trace = tmp_path / "masks.jsonl"
        cfg = load_run_config(workspace.run_config(
            tmp_path / "run.json",
            model={"checkpoint": str(small_checkpoint(workspace, tmp_path / "small.spnm"))},
            decode={"max_new_tokens": 4},  # the pope_overflow case: POPE contexts overflow
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 1]},
            eval={"corpus": str(corpus)},
            output={"trace_masks": str(trace)},
        ), environ={})
        want, want_trace = reference_eval(cfg, load_eval_inputs(cfg, "eval"))

        sizes, forwards = [], []  # requests per step_many; parts per forward
        step_many, forward = Engine.step_many, Engine._forward

        def counted_step_many(self, requests):
            sizes.append(len(requests))
            return step_many(self, requests)

        def counted_forward(self, x, parts, *rest):
            forwards.append(len(parts))
            return forward(self, x, parts, *rest)

        monkeypatch.setattr(Engine, "step_many", counted_step_many)
        monkeypatch.setattr(Engine, "_forward", counted_forward)
        report = run_eval(cfg)
        got = strip_timing(report)
        got.pop("config")
        assert got == want
        assert trace.read_text() == want_trace
        assert list(report["failures"]) == [records[5]["id"]] and report["pope_skipped"] > 0
        # up to IN_FLIGHT requests per step, and a step of several requests is one forward over all of them
        assert max(sizes) == IN_FLIGHT and min(sizes) >= 1
        assert sorted(n for n in forwards if n > 1) == sorted(n for n in sizes if n > 1)


class TestSlots:
    """Records in flight share one KV pool, a slot each; a record that ends
    or fails frees its slot for the next."""

    def test_failed_record_frees_its_slot_for_the_next(self, workspace, tmp_path, monkeypatch):
        """Beam 3 through the pool: a record fails at its first POPE turn, after its caption filled
        its slot, and the record that takes the slot over generates what the plain path does."""
        cfg = load_run_config(workspace.run_config(
            tmp_path / "run.json", decode={"strategy": "beam", "beam_width": 3, "max_new_tokens": 4, "eos_id": None},
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}, eval={"pope_max_new_tokens": 2},
        ), environ={})
        inputs = load_eval_inputs(cfg, "eval")
        bad, last = inputs.records[1], inputs.records[-1]
        assert len(inputs.records) == IN_FLIGHT + 1
        slots, eval_record, prefill = {}, runner._eval_record, Engine.prefill

        def spied_eval_record(engine, record, cfg, table, policy, cache):
            slots[record.record_id] = (cache.offset, cache.n_streams)
            return (yield from eval_record(engine, record, cfg, table, policy, cache))

        def failing_prefill(engine, prompt, cache, policy=None, return_all_logits=False):
            out = prefill(engine, prompt, cache, policy, return_all_logits)
            pope_turn = np.array_equal(prompt.vision, bad.vision) and len(prompt) > len(bad.vision) + len(bad.prompt_ids)
            return np.full_like(out, np.nan) if pope_turn else out

        monkeypatch.setattr(runner, "_eval_record", spied_eval_record)
        monkeypatch.setattr(Engine, "prefill", failing_prefill)
        report = run_eval(cfg, write_outputs=False, inputs=inputs)
        monkeypatch.undo()
        assert list(report["failures"]) == [bad.record_id] and "non-finite logits" in report["failures"][bad.record_id]
        assert slots[last.record_id] == slots[bad.record_id] == (3, 3)
        assert sorted(slots.values()) == sorted([(3 * k, 3) for k in range(IN_FLIGHT)] + [(3, 3)])  # one taken twice
        policy = SpinPolicy(cfg.spin, inputs.engine.config.n_layers, inputs.engine.config.n_heads)
        for rec in inputs.records:
            if rec is not bad:
                _, outs, _ = reference_eval_record(inputs.engine, rec, cfg, inputs.table, policy)
                assert report["generations"][rec.record_id] == {"caption": outs[0], "pope": outs[1:]}, rec.record_id

    @pytest.mark.parametrize("pope_mode", ["multi_turn", "single_turn"])
    def test_pool_holds_the_longest_reach(self, workspace, tmp_path, monkeypatch, pope_mode):
        """A slot holds a record's prompt, then its caption or its POPE turns: every turn multi-turn,
        only the longest single-turn, where each turn starts again from the prompt."""
        cfg = load_run_config(workspace.run_config(tmp_path / "run.json", eval={"pope_mode": pope_mode}), environ={})
        inputs = load_eval_inputs(cfg, "eval")
        ev, turns = cfg.eval, sum if pope_mode == "multi_turn" else max
        want = max(len(r.prompt_ids) + len(r.vision) + max(cfg.decode.max_new_tokens, turns(
            len(inputs.table.encode_text(item.question())) + ev.pope_max_new_tokens for item in r.pope))
            for r in inputs.records)
        max_lens, new_cache = [], Engine.new_cache

        def recorded_new_cache(self, n_streams=1, max_len=None):
            max_lens.append(max_len)
            return new_cache(self, n_streams, max_len)

        monkeypatch.setattr(Engine, "new_cache", recorded_new_cache)
        run_eval(cfg, write_outputs=False, inputs=inputs)
        assert max_lens == [want]


class TestGroupedSteps:
    def test_lockstep_step_makes_one_policy_call_per_layer(self, workspace, tmp_path, monkeypatch):
        """Captions of one length from prompts of one length: every batched step is one group, which
        makes one policy call per layer, however many records it steps."""
        cfg = load_run_config(workspace.run_config(
            tmp_path / "run.json", decode={"max_new_tokens": 6, "eos_id": None}, eval={"pope": False},
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}, output={"trace_masks": str(tmp_path / "masks.jsonl")},
        ), environ={})
        sizes, calls, seen = [], [], []  # per step: requests and policy calls; every policy call
        step_many, call = Engine.step_many, SpinPolicy.__call__

        def counted_step_many(self, requests):
            before = len(seen)
            out = step_many(self, requests)
            sizes.append(len(requests))
            calls.append(len(seen) - before)
            return out

        monkeypatch.setattr(Engine, "step_many", counted_step_many)
        monkeypatch.setattr(SpinPolicy, "__call__", lambda self, *args: seen.append(args) or call(self, *args))
        report = run_eval(cfg)
        assert report["metrics"]["n_records"] == IN_FLIGHT + 1
        assert sizes == [IN_FLIGHT] * 5 + [1] * 5  # five steps per caption of six tokens
        assert calls == [2] * len(sizes)


class TestThreadCountInvariance:
    def test_one_and_two_blas_threads_give_the_same_outputs(self, tmp_path):
        """A 4-record README quick-start eval (SPIN r 0.25 on all 4 layers,
        greedy, multi-turn POPE) writes the same report, less timing, and the
        same mask trace bytes with one BLAS thread as with two."""
        paths = generate_synthetic_corpus(
            SyntheticCorpusSpec(n_images=4, span_len=48, embed_dim=64, n_objects=24, objects_per_image=3, seed=7),
            tmp_path,
        )
        model = ModelConfig(n_layers=4, n_heads=8, d_model=64, d_ffn=256, vocab_size=len(TokenTable.load(paths.tokens)),
                            max_seq_len=512)
        save_checkpoint(init_checkpoint(model, 1), tmp_path / "model.spnm")
        src = str(Path(spin_infer.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            config = {
                "model": {"checkpoint": str(tmp_path / "model.spnm")},
                "spin": {"strategy": "image_attention", "r": 0.25, "alpha": 0.0, "layer_range": [1, 4]},
                "decode": {"strategy": "greedy", "max_new_tokens": 32, "eos_id": 0, "seed": 7},
                "eval": {"corpus": str(paths.corpus), "vocab": str(paths.vocab), "tokens": str(paths.tokens)},
                "output": {"report_json": str(out / "report.json"), "trace_masks": str(out / "masks.jsonl")},
            }
            (out / "run.json").write_text(json.dumps(config))
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            env.update({var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
            main = "import sys; from spin_infer.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", main, "eval", "--config", str(out / "run.json")],
                           env=env, check=True, capture_output=True)
            report = json.loads((out / "report.json").read_text())
            assert report["metrics"]["n_records"] == 4
            outputs.append((report_digest(report), (out / "masks.jsonl").read_bytes()))
        assert outputs[0] == outputs[1]


class TestTunerIntegration:
    def test_eval_fn_over_real_corpus(self, workspace, tmp_path):
        from spin_infer.analytics import tune_three_stage

        cfg_path = workspace.run_config(
            tmp_path / "run.json",
            eval={"pope": False, "max_records": 2},
            decode={"strategy": "greedy", "max_new_tokens": 4, "eos_id": 0, "seed": 5},
        )
        cfg = load_run_config(cfg_path, environ={})
        result = tune_three_stage(
            spin_eval_fn(cfg, load_eval_inputs(cfg, "tune")),
            n_layers=2,
            r_grid=[0.25],
            alpha_grid=[0.0, 0.5],
            layer_grids=[(1, 2)],
        )
        assert result.selected.r == 0.25
        assert any(e.config == result.selected for e in result.stages[2].entries)
