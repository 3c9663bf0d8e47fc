import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spin_infer
from spin_infer.analytics import aggregate_masks, profile_attention
from spin_infer.cli import build_parser, main
from spin_infer.config import load_run_config
from spin_infer.corpus import SyntheticCorpusSpec, TokenTable, generate_synthetic_corpus, load_corpus
from spin_infer.decoding import DecodeConfig, generate
from spin_infer.engine import Engine, MultimodalPrompt
from spin_infer.model import load_checkpoint
from spin_infer.spin import SpinPolicy


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInitCkpt:
    def test_creates_loadable_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "m.spnm"
        code, stdout, _ = run_cli(
            capsys, "init-ckpt", "--layers", "2", "--heads", "2", "--d-model", "16",
            "--d-ffn", "16", "--vocab-size", "32", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        ck = load_checkpoint(out)
        assert ck.config.n_layers == 2

    def test_invalid_dims_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "init-ckpt", "--layers", "2", "--heads", "3", "--d-model", "16",
            "--d-ffn", "16", "--vocab-size", "32", "--out", str(tmp_path / "m.spnm"),
        )
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("max_seq_len", [64, 300])
    def test_max_seq_len_reaches_checkpoint(self, tmp_path, capsys, max_seq_len):
        out = tmp_path / "m.spnm"
        code, _, _ = run_cli(
            capsys, "init-ckpt", "--layers", "1", "--heads", "2", "--d-model", "8", "--d-ffn", "8",
            "--vocab-size", "16", "--max-seq-len", str(max_seq_len), "--out", str(out),
        )
        assert code == 0
        assert load_checkpoint(out).config.max_seq_len == max_seq_len

    def test_closed_stdout_pipe_exits_4_without_traceback(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(spin_infer.__file__).resolve().parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spin_infer.cli", "init-ckpt", "--layers", "1", "--heads", "2",
                 "--d-model", "8", "--d-ffn", "8", "--vocab-size", "16", "--out", str(tmp_path / "m.spnm")],
                stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}, timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 4, err
        assert "Traceback" not in err
        assert err.startswith("runtime error:")


class TestMakeCorpus:
    def test_writes_three_files(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "make-corpus", "--images", "3", "--span-len", "2", "--embed-dim", "8",
            "--objects", "6", "--objects-per-image", "2", "--seed", "1",
            "--out-dir", str(tmp_path / "c"),
        )
        assert code == 0
        assert (tmp_path / "c" / "corpus.jsonl").exists()
        assert (tmp_path / "c" / "vocab.tsv").exists()
        assert (tmp_path / "c" / "tokens.json").exists()
        assert "vocab_size needed" in stdout

    def test_unset_flags_take_spec_defaults(self, tmp_path, capsys):
        argv = ["make-corpus", "--images", "3", "--span-len", "2", "--embed-dim", "8"]
        assert run_cli(capsys, *argv, "--out-dir", str(tmp_path / "cli"))[0] == 0
        generate_synthetic_corpus(SyntheticCorpusSpec(3, 2, 8), tmp_path / "lib")
        for name in ("corpus.jsonl", "vocab.tsv", "tokens.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_too_few_objects_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "make-corpus", "--images", "3", "--span-len", "2", "--embed-dim", "8",
            "--objects", "2", "--objects-per-image", "2", "--out-dir", str(tmp_path / "c"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--pope-pairs", "2"), ("--zipf-s", "2.0"), ("--noise", "0.3")])
    def test_flag_reaches_corpus(self, tmp_path, capsys, flag, value):
        """Each record has 6 x --pope-pairs POPE entries (yes and no, three
        splits), and every flag changes the corpus bytes."""
        argv = ["make-corpus", "--images", "3", "--span-len", "2", "--embed-dim", "8",
                "--objects", "8", "--objects-per-image", "2", "--seed", "1"]
        assert run_cli(capsys, *argv, "--out-dir", str(tmp_path / "default"))[0] == 0
        assert run_cli(capsys, *argv, flag, value, "--out-dir", str(tmp_path / "set"))[0] == 0
        default, changed = [(tmp_path / d / "corpus.jsonl").read_text() for d in ("default", "set")]
        assert changed != default
        pairs = int(value) if flag == "--pope-pairs" else 1
        assert [len(json.loads(line)["pope"]) for line in changed.splitlines()] == [6 * pairs] * 3


class TestGenerate:
    """`generate --config`: one record of the run config's eval corpus,
    decoded with its `decode` section under its `spin` section."""

    def test_outputs_json_result(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPIN__DECODE__MAX_NEW_TOKENS", "6")
        monkeypatch.setenv("SPIN__DECODE__SEED", "3")
        code, stdout, _ = run_cli(capsys, "generate", "--config", str(workspace.run_config(tmp_path / "run.json")))
        assert code == 0
        result = json.loads(stdout)
        assert len(result["token_ids"]) <= 6
        assert isinstance(result["text"], str)
        assert set(result) == {"token_ids", "text", "n_new_tokens", "ended_at_eos", "truncated", "prefill_s",
                               "decode_s"}

    @pytest.mark.parametrize("record_id, env", [
        (None, {}),
        ("img0003", {"SPIN__DECODE__STRATEGY": "beam", "SPIN__DECODE__BEAM_WIDTH": "3"}),
        ("img0002", {"SPIN__DECODE__STRATEGY": "nucleus", "SPIN__DECODE__NUCLEUS_P": "0.8",
                     "SPIN__DECODE__REPETITION_PENALTY": "1.3", "SPIN__DECODE__EOS_ID": "null"}),
    ], ids=["first_record_greedy", "beam", "nucleus"])
    def test_decodes_record_with_run_config(self, workspace, tmp_path, capsys, monkeypatch, record_id, env):
        """The record (the first without --record-id), decode section and SPIN
        section are those of the run config, env overrides included."""
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        cfg_path = workspace.run_config(tmp_path / "run.json", spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]})
        code, stdout, _ = run_cli(capsys, "generate", "--config", str(cfg_path),
                                  *(["--record-id", record_id] if record_id else []))
        assert code == 0
        cfg = load_run_config(cfg_path)
        assert cfg.decode.strategy == env.get("SPIN__DECODE__STRATEGY", "greedy")
        rec = next(r for r in load_corpus(workspace.corpus) if record_id in (None, r.record_id))
        engine = Engine(load_checkpoint(workspace.checkpoint))
        want = generate(engine, MultimodalPrompt([], rec.vision, rec.prompt_ids), cfg.decode,
                        SpinPolicy(cfg.spin, engine.config.n_layers, engine.config.n_heads),
                        token_table=TokenTable.load(workspace.tokens))
        result = json.loads(stdout)
        assert (result["token_ids"], result["text"]) == (want.token_ids, want.text)

    def test_spin_r_zero_is_the_baseline(self, workspace, tmp_path, capsys, monkeypatch):
        spin = {"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}
        code, plain, _ = run_cli(capsys, "generate", "--config", str(workspace.run_config(tmp_path / "plain.json")))
        assert code == 0
        monkeypatch.setenv("SPIN__SPIN__R", "0")
        code, r_zero, _ = run_cli(capsys, "generate", "--config",
                                  str(workspace.run_config(tmp_path / "spin.json", spin=spin)))
        assert code == 0
        assert json.loads(r_zero)["token_ids"] == json.loads(plain)["token_ids"]

    def test_spin_and_trace(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPIN__DECODE__MAX_NEW_TOKENS", "6")
        trace_path = tmp_path / "masks.jsonl"
        cfg = workspace.run_config(tmp_path / "run.json", spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]},
                                   output={"trace_masks": str(trace_path)})
        code, stdout, _ = run_cli(capsys, "generate", "--config", str(cfg), "--record-id", "img0001")
        assert code == 0
        hm = aggregate_masks([trace_path])
        assert hm.steps_per_layer.max() > 0

    def test_layer_range_beyond_model_exit_2_without_trace(self, workspace, tmp_path, capsys):
        trace_path = tmp_path / "masks.jsonl"
        cfg = workspace.run_config(
            tmp_path / "run.json",
            spin={"r": 0.5, "layer_range": [1, workspace.model_config.n_layers + 1]},
            output={"trace_masks": str(trace_path)},
        )
        code, _, err = run_cli(capsys, "generate", "--config", str(cfg))
        assert code == 2
        assert "exceeds n_layers" in err
        assert not trace_path.exists()

    def test_missing_record_exit_3(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPIN__EVAL__MAX_RECORDS", "2")
        cfg = workspace.run_config(tmp_path / "run.json")
        code, _, err = run_cli(capsys, "generate", "--config", str(cfg), "--record-id", "img0003")
        assert code == 3
        assert err.strip() == f"data error: {workspace.corpus}: no record with id 'img0003' in the first 2 records"

    @pytest.mark.parametrize("key", ["model.checkpoint", "eval.corpus", "eval.vocab", "eval.tokens"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_missing_input_file_exit_2(self, workspace, tmp_path, capsys, key, kind):
        bad = tmp_path / "absent" if kind == "missing" else tmp_path
        section, name = key.split(".")
        cfg = workspace.run_config(tmp_path / "run.json", **{section: {name: str(bad)}})
        code, stdout, err = run_cli(capsys, "generate", "--config", str(cfg))
        assert code == 2
        assert err.strip() == f"config error: {key}: file not found: {bad}"
        assert stdout == ""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.__setitem__(0, 5), "bad.spnm: tensors[0]: expected object, got 5"),
            (lambda t: t[1].__setitem__("offset", t[1]["offset"] + 0.5), "bad.spnm: tensors[1].offset: expected int"),
            (lambda t: t[1].__setitem__("offset", str(t[1]["offset"])), "bad.spnm: tensors[1].offset: expected int"),
            (lambda t: t[0].__setitem__("offset", False), "bad.spnm: tensors[0].offset: expected int"),
            (lambda t: t[0].__setitem__("shape", [float(x) for x in t[0]["shape"]]), "bad.spnm: tensors[0].shape[0]: expected int"),
            (lambda t: t[0].__setitem__("shape", 7), "bad.spnm: tensors[0].shape: expected list[int], got 7"),
        ],
        ids=["non_object", "float_offset", "string_offset", "bool_offset", "float_shape", "scalar_shape"],
    )
    def test_malformed_tensor_table_exit_3(self, workspace, tmp_path, capsys, edit, message):
        raw = workspace.checkpoint.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        edit(header["tensors"])
        blob = json.dumps(header).encode()
        ckpt = tmp_path / "bad.spnm"
        ckpt.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen :])
        cfg = workspace.run_config(tmp_path / "run.json", model={"checkpoint": str(ckpt)})
        code, _, err = run_cli(capsys, "generate", "--config", str(cfg))
        assert code == 3
        assert message in err
        assert "Traceback" not in err


class TestEval:
    def test_prints_metrics_and_writes_reports(self, workspace, tmp_path, capsys):
        cfg = workspace.run_config(
            tmp_path / "run.json",
            output={"report_json": str(tmp_path / "r.json"), "report_csv": str(tmp_path / "r.csv")},
        )
        code, stdout, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 0
        metrics = json.loads(stdout)
        assert "chair" in metrics and "pope" in metrics
        assert (tmp_path / "r.json").exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize("max_records", [-1, 0])
    def test_max_records_below_one_exit_2(self, workspace, tmp_path, capsys, max_records):
        cfg = workspace.run_config(tmp_path / "run.json", eval={"max_records": max_records})
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "eval.max_records" in err

    def test_layer_range_beyond_model_exit_2_without_trace(self, workspace, tmp_path, capsys):
        trace_path = tmp_path / "masks.jsonl"
        cfg = workspace.run_config(
            tmp_path / "run.json",
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, workspace.model_config.n_layers + 1]},
            output={"trace_masks": str(trace_path)},
        )
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "exceeds n_layers" in err
        assert not trace_path.exists()

    def test_duplicate_record_id_exit_3(self, workspace, tmp_path, capsys):
        lines = workspace.corpus.read_text().splitlines()
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join([lines[0], lines[0], lines[2]]) + "\n")
        cfg = workspace.run_config(tmp_path / "run.json", eval={"corpus": str(dup)})
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 3
        assert "dup.jsonl:2: duplicate record id 'img0000'" in err

    def test_corrupt_corpus_exit_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        cfg = workspace.run_config(tmp_path / "run.json", eval={"corpus": str(bad)})
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 3

    @pytest.mark.parametrize("command, args", [
        ("eval", []),
        ("profile", ["--out-prefix", "prof"]),
        ("tune", ["--out", "sweep.json"]),
        ("generate", []),
    ])
    def test_vision_width_mismatch_exit_3_without_outputs(self, workspace, tmp_path, capsys, command, args):
        """Every record's vision width is checked against d_model before the
        first record runs, so a bad corpus writes no report, trace or profile."""
        spec = SyntheticCorpusSpec(n_images=3, span_len=4, embed_dim=16, n_objects=10, objects_per_image=2, seed=3)
        corpus = generate_synthetic_corpus(spec, tmp_path / "corpus").corpus
        out = tmp_path / "out"
        out.mkdir()
        cfg = workspace.run_config(
            tmp_path / "run.json",
            eval={"corpus": str(corpus)},
            spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]},
            output={"report_json": str(out / "r.json"), "report_csv": str(out / "r.csv"),
                    "trace_masks": str(out / "masks.jsonl")},
            tune={"r_grid": [0.25], "alpha_grid": [0.0], "layer_grids": [[1, 2]]},
        )
        argv = [str(out / a) if a in ("prof", "sweep.json") else a for a in args]
        code, stdout, err = run_cli(capsys, command, "--config", str(cfg), *argv)
        assert code == 3
        assert err.strip() == "data error: record img0000: vision dim 16 != d_model 24"
        assert stdout == ""
        assert list(out.iterdir()) == []


class TestProfileHeatmapTune:
    def test_profile_writes_outputs(self, workspace, tmp_path, capsys):
        cfg = workspace.run_config(
            tmp_path / "run.json",
            decode={"strategy": "greedy", "max_new_tokens": 4, "eos_id": None, "seed": 5},
            eval={"max_records": 2},
        )
        code, _, _ = run_cli(
            capsys, "profile", "--config", str(cfg), "--out-prefix", str(tmp_path / "prof"),
        )
        assert code == 0
        rows = (tmp_path / "prof.csv").read_text().strip().splitlines()
        assert rows[0] == "layer,vision_fraction,text_fraction"
        data = json.loads((tmp_path / "prof.json").read_text())
        assert len(data["vision"]) == 2

    def test_profile_max_records_takes_first_records(self, workspace, tmp_path, capsys):
        decode = {"strategy": "greedy", "max_new_tokens": 4, "eos_id": None, "seed": 5}
        cfg = workspace.run_config(tmp_path / "run.json", decode=decode, eval={"max_records": 2})
        code, _, _ = run_cli(capsys, "profile", "--config", str(cfg), "--out-prefix", str(tmp_path / "prof"))
        assert code == 0
        prompts = [MultimodalPrompt([], r.vision, r.prompt_ids) for r in load_corpus(workspace.corpus)[:2]]
        want = profile_attention(Engine(load_checkpoint(workspace.checkpoint)), prompts, DecodeConfig(**decode))
        assert json.loads((tmp_path / "prof.json").read_text()) == json.loads(json.dumps(want.to_dict()))

    def test_profile_token_table_size_mismatch_exit_2(self, workspace, tmp_path, capsys):
        tokens = json.loads(workspace.tokens.read_text())
        short = tmp_path / "tokens.json"
        short.write_text(json.dumps({**tokens, "tokens": tokens["tokens"][:-1]}))
        cfg = workspace.run_config(tmp_path / "run.json", eval={"tokens": str(short)})
        code, _, err = run_cli(capsys, "profile", "--config", str(cfg), "--out-prefix", str(tmp_path / "prof"))
        assert code == 2
        assert "vocab_size" in err
        assert not (tmp_path / "prof.json").exists()

    def test_heatmap_command(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPIN__DECODE__MAX_NEW_TOKENS", "4")
        trace_path = tmp_path / "masks.jsonl"
        cfg = workspace.run_config(tmp_path / "run.json", spin={"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]},
                                   output={"trace_masks": str(trace_path)})
        assert run_cli(capsys, "generate", "--config", str(cfg))[0] == 0
        code, _, _ = run_cli(
            capsys, "heatmap", "--traces", str(trace_path), "--out-prefix", str(tmp_path / "heat")
        )
        assert code == 0
        rows = (tmp_path / "heat.csv").read_text().strip().splitlines()
        assert rows[0] == "layer,head,value"
        assert len(rows) == 1 + 2 * 4

    def test_heatmap_missing_trace_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "heatmap", "--traces", str(tmp_path / "absent.jsonl"), "--out-prefix", str(tmp_path / "heat")
        )
        assert code == 2
        assert err.strip() == f"config error: --traces: file not found: {tmp_path / 'absent.jsonl'}"
        assert not (tmp_path / "heat.csv").exists()

    def test_heatmap_malformed_header_exit_3(self, tmp_path, capsys):
        trace_path = tmp_path / "masks.jsonl"
        trace_path.write_text(json.dumps({"meta": {"n_heads": 4}}) + "\n")
        code, _, err = run_cli(
            capsys, "heatmap", "--traces", str(trace_path), "--out-prefix", str(tmp_path / "heat")
        )
        assert code == 3
        assert f"{trace_path}:1: meta.n_layers: missing" in err
        assert not (tmp_path / "heat.csv").exists()

    def test_heatmap_malformed_record_exit_3(self, tmp_path, capsys):
        trace_path = tmp_path / "masks.jsonl"
        meta = {"meta": {"n_layers": 2, "n_heads": 2, "spin": {}}}
        trace_path.write_text(json.dumps(meta) + "\n" + json.dumps({"pos": 3, "layer": True, "mask": [1, 0]}) + "\n")
        code, _, err = run_cli(
            capsys, "heatmap", "--traces", str(trace_path), "--out-prefix", str(tmp_path / "heat")
        )
        assert code == 3
        assert f"{trace_path}:2: layer: expected int, got True" in err
        assert not (tmp_path / "heat.csv").exists()

    def tune_config(self, workspace, path, **tune):
        return workspace.run_config(
            path,
            eval={"pope": False, "max_records": 2},
            decode={"strategy": "greedy", "max_new_tokens": 4, "eos_id": 0, "seed": 5},
            tune={"r_grid": [0.25], "alpha_grid": [0.0], "layer_grids": [[1, 2]], **tune},
        )

    def test_tune_command(self, workspace, tmp_path, capsys):
        cfg = self.tune_config(workspace, tmp_path / "run.json", alpha_grid=[0.0, 0.5])
        code, _, _ = run_cli(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "sweep.json"))
        assert code == 0
        sweep = json.loads((tmp_path / "sweep.json").read_text())
        assert sweep["selected"]["r"] == 0.25
        assert len(sweep["stages"]) == 3

    @pytest.mark.parametrize("key, value", [("strategy", "key_norm"), ("f1_drop_limit", 0.2), ("tradeoff_lambda", 0.5)])
    def test_tune_key_reaches_sweep(self, workspace, tmp_path, capsys, key, value):
        cfg = self.tune_config(workspace, tmp_path / "run.json", **{key: value})
        code, _, _ = run_cli(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "sweep.json"))
        assert code == 0
        want = {"strategy": "image_attention", "f1_drop_limit": 0.03, "tradeoff_lambda": 1.0, key: value}
        sweep = json.loads((tmp_path / "sweep.json").read_text())
        assert (sweep["f1_drop_limit"], sweep["tradeoff_lambda"]) == (want["f1_drop_limit"], want["tradeoff_lambda"])
        strategies = [e["config"]["strategy"] for stage in sweep["stages"] for e in stage["entries"]]
        assert strategies and set(strategies) == {want["strategy"]}

    def test_tune_without_section_exit_2_before_inputs(self, workspace, tmp_path, capsys):
        """No `tune` section is a config error raised before any input is read: a corrupt corpus (exit 3 once
        read) is never reached."""
        (tmp_path / "bad.jsonl").write_text("garbage\n")
        cfg = workspace.run_config(tmp_path / "run.json", eval={"corpus": str(tmp_path / "bad.jsonl")})
        code, stdout, err = run_cli(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "sweep.json"))
        assert (code, stdout) == (2, "")
        assert err.strip() == "config error: tune: section missing (required by tune)"
        assert not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("LAYER_GRIDS", "[[1,2,3]]", "tune: tune.layer_grids[0]: expected [lo, hi], got [1, 2, 3]"),
        ("LAYER_GRIDS", "[]", "tuner layer grid must be non-empty"),
        ("R_GRID", '["x"]', "tune.r_grid[0]: expected float, got 'x'"),
        ("F1_DROP_LIMIT", "NaN", "tune: tune.f1_drop_limit: must be finite, got nan"),
        ("TRADEOFF_LAMBDA", "NaN", "tune: tune.tradeoff_lambda: must be finite, got nan"),
        ("TRADEOFF_LAMBDA", "-Infinity", "tune: tune.tradeoff_lambda: must be finite, got -inf"),
    ])
    def test_bad_tune_key_exit_2(self, workspace, tmp_path, capsys, monkeypatch, key, value, message):
        """A malformed sweep stops before the first eval. A non-finite limit would otherwise still select an
        entry: a NaN drop limit fails every stage-1 constraint, a NaN lambda makes every objective NaN."""
        monkeypatch.setenv(f"SPIN__TUNE__{key}", value)
        cfg = self.tune_config(workspace, tmp_path / "run.json")
        code, stdout, err = run_cli(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "sweep.json"))
        assert (code, stdout) == (2, "")
        assert err.strip() == f"config error: {message}"
        assert not (tmp_path / "sweep.json").exists()


class TestTopLevel:
    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_flag_shows_debug_records(self, tmp_path, verbose):
        """-v configures logging at DEBUG: a debug record of the package's
        logger then reaches stderr, in the CLI's log format."""
        src = str(Path(spin_infer.__file__).resolve().parents[1])
        argv = ["-v"] * verbose + ["init-ckpt", "--layers", "1", "--heads", "2", "--d-model", "8", "--d-ffn", "8",
                                   "--vocab-size", "16", "--out", str(tmp_path / "m.spnm")]
        script = ("import logging, sys; from spin_infer.cli import main; code = main(sys.argv[1:]); "
                  "logging.getLogger('spin_infer').debug('probe'); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert ("DEBUG spin_infer: probe" in proc.stderr) == verbose

    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_eval_logs_each_finished_record(self, workspace, tmp_path, verbose):
        """`-v eval` logs one DEBUG line per finished record: its id, requests, new tokens and seconds in
        flight. Plain `eval` logs none."""
        cfg = workspace.run_config(tmp_path / "run.json", eval={"max_records": 3},
                                   output={"report_json": str(tmp_path / "report.json")})
        src = str(Path(spin_infer.__file__).resolve().parents[1])
        script = "import sys; from spin_infer.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", script, *["-v"] * verbose, "eval", "--config", str(cfg)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        gens = json.loads((tmp_path / "report.json").read_text())["generations"]
        want = sorted((rid, 1 + len(g["pope"]), len(g["caption"]) + sum(map(len, g["pope"]))) for rid, g in gens.items())
        pattern = r"DEBUG spin_infer: record (\S+): (\d+) requests, (\d+) new tokens, \d+\.\d{3} s in flight"
        got = sorted((m[1], int(m[2]), int(m[3])) for line in proc.stderr.splitlines() if (m := re.fullmatch(pattern, line)))
        assert got == (want if verbose else []) and len(want) == 3
        assert verbose or "DEBUG" not in proc.stderr

    def test_readme_quick_start_commands_parse(self):
        """Every `spin-infer` command of the README quick start parses, so a
        renamed or removed flag fails here rather than for a reader."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line.split(" #", 1)[0] for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line) for line in lines if not line.lstrip().startswith("#") and "spin-infer" in line]
        assert {argv[argv.index("spin-infer") + 1] for argv in commands} == {
            "make-corpus", "init-ckpt", "eval", "generate", "profile", "heatmap", "tune"}
        for argv in commands:
            args = build_parser().parse_args(argv[argv.index("spin-infer") + 1 :])
            assert callable(args.fn)

    def test_decoding_commands_take_run_settings_only_from_the_config(self):
        """`generate`, `eval`, `profile` and `tune` read every run setting from --config; their own flags name
        outputs or the record, so a command that grows a run flag of its own fails here."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("generate", "eval", "profile", "tune"):
            options = {o for action in sub.choices[command]._actions for o in action.option_strings}
            assert options <= {"--config", "--record-id", "--out-prefix", "--out", "-h", "--help"}, command

    def test_readme_run_config_loads(self, tmp_path):
        """The JSON block under "## Run config" loads as a run config, `tune` section included, with empty
        placeholders at the input paths it names."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Run config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        raw = json.loads(block)
        for rel in [raw["model"]["checkpoint"]] + [raw["eval"][k] for k in ("corpus", "vocab", "tokens")]:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).touch()
        (tmp_path / "run.json").write_text(block)
        cfg = load_run_config(tmp_path / "run.json", environ={})
        assert cfg.tune is not None and cfg.tune.r_grid
