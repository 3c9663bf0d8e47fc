import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spin_infer
from spin_infer.cli import main
from spin_infer.corpus import SyntheticCorpusSpec, generate_synthetic_corpus


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
        from spin_infer.model import load_checkpoint

        ck = load_checkpoint(out)
        assert ck.config.n_layers == 2

    def test_invalid_dims_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "init-ckpt", "--layers", "2", "--heads", "3", "--d-model", "16",
            "--d-ffn", "16", "--vocab-size", "32", "--out", str(tmp_path / "m.spnm"),
        )
        assert code == 2
        assert "config error" in err


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

    def test_too_few_objects_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "make-corpus", "--images", "3", "--span-len", "2", "--embed-dim", "8",
            "--objects", "2", "--objects-per-image", "2", "--out-dir", str(tmp_path / "c"),
        )
        assert code == 2


class TestGenerate:
    def test_outputs_json_result(self, workspace, capsys):
        code, stdout, _ = run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--tokens", str(workspace.tokens),
            "--decode", "greedy", "--max-new", "6", "--seed", "3",
        )
        assert code == 0
        result = json.loads(stdout)
        assert len(result["token_ids"]) <= 6
        assert isinstance(result["text"], str)

    def test_spin_and_trace(self, workspace, tmp_path, capsys):
        spin_path = tmp_path / "spin.json"
        spin_path.write_text(json.dumps({"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}))
        trace_path = tmp_path / "masks.jsonl"
        code, stdout, _ = run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--record-id", "img0001",
            "--spin", str(spin_path), "--trace-masks", str(trace_path),
            "--max-new", "6",
        )
        assert code == 0
        from spin_infer.analytics import aggregate_masks

        hm = aggregate_masks([trace_path])
        assert hm.steps_per_layer.max() > 0

    def test_layer_range_beyond_model_exit_2_without_trace(self, workspace, tmp_path, capsys):
        spin_path = tmp_path / "spin.json"
        spin_path.write_text(json.dumps({"r": 0.5, "layer_range": [1, workspace.model_config.n_layers + 1]}))
        trace_path = tmp_path / "masks.jsonl"
        code, _, err = run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--spin", str(spin_path),
            "--trace-masks", str(trace_path),
        )
        assert code == 2
        assert "exceeds n_layers" in err
        assert not trace_path.exists()

    def test_missing_record_exit_3(self, workspace, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--record-id", "nope",
        )
        assert code == 3
        assert "data error" in err

    def test_vision_width_mismatch_exit_3(self, workspace, tmp_path, capsys):
        spec = SyntheticCorpusSpec(n_images=2, span_len=4, embed_dim=16, n_objects=10, objects_per_image=2, seed=3)
        corpus = generate_synthetic_corpus(spec, tmp_path / "corpus").corpus
        code, _, err = run_cli(capsys, "generate", "--ckpt", str(workspace.checkpoint), "--prompt", str(corpus))
        assert code == 3
        assert err.strip() == "data error: vision embedding dim 16 != d_model 24"

    def test_missing_spin_file_exit_2(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--spin", str(tmp_path / "absent.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--ckpt", "--prompt", "--tokens"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_missing_input_file_exit_2(self, workspace, tmp_path, capsys, flag, kind):
        bad = tmp_path / "absent" if kind == "missing" else tmp_path
        files = {"--ckpt": workspace.checkpoint, "--prompt": workspace.corpus, "--tokens": workspace.tokens, flag: bad}
        code, _, err = run_cli(capsys, "generate", *[str(x) for item in files.items() for x in item])
        assert code == 2
        assert err.strip() == f"config error: {flag}: file not found: {bad}"

    @pytest.mark.parametrize(
        "text",
        [
            '{"r": 0.5, "layer_range": [1, 2]}\ntrailing',
            '[{"r": 0.5, "layer_range": [1, 2]}]',
            '{"r": 0.5, "layer_range": [1, 2], "temperature": 1.0}',
        ],
        ids=["trailing_garbage", "non_object", "unknown_key"],
    )
    def test_bad_spin_file_exit_2(self, workspace, tmp_path, capsys, text):
        spin_path = tmp_path / "spin.json"
        spin_path.write_text(text)
        code, _, err = run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--spin", str(spin_path),
        )
        assert code == 2
        assert "config error" in err

    def test_bare_and_wrapped_spin_file_agree(self, workspace, tmp_path, capsys):
        spin = {"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}
        token_ids = []
        for name, body in (("bare.json", spin), ("wrapped.json", {"spin": spin})):
            (tmp_path / name).write_text(json.dumps(body))
            code, stdout, _ = run_cli(
                capsys, "generate", "--ckpt", str(workspace.checkpoint),
                "--prompt", str(workspace.corpus), "--spin", str(tmp_path / name), "--max-new", "6",
            )
            assert code == 0
            token_ids.append(json.loads(stdout)["token_ids"])
        assert token_ids[0] == token_ids[1]

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
        code, _, err = run_cli(capsys, "generate", "--ckpt", str(ckpt), "--prompt", str(workspace.corpus))
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
        ("tune", ["--r-grid", "0.25", "--alpha-grid", "0.0", "--layer-grids", "1-2", "--out", "sweep.json"]),
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
        from spin_infer.analytics import profile_attention
        from spin_infer.corpus import load_corpus
        from spin_infer.decoding import DecodeConfig
        from spin_infer.engine import Engine, MultimodalPrompt
        from spin_infer.model import load_checkpoint

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

    def test_heatmap_command(self, workspace, tmp_path, capsys):
        spin_path = tmp_path / "spin.json"
        spin_path.write_text(json.dumps({"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]}))
        trace_path = tmp_path / "masks.jsonl"
        run_cli(
            capsys, "generate", "--ckpt", str(workspace.checkpoint),
            "--prompt", str(workspace.corpus), "--spin", str(spin_path),
            "--trace-masks", str(trace_path), "--max-new", "4",
        )
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

    def test_tune_command(self, workspace, tmp_path, capsys):
        cfg = workspace.run_config(
            tmp_path / "run.json",
            eval={"pope": False, "max_records": 2},
            decode={"strategy": "greedy", "max_new_tokens": 4, "eos_id": 0, "seed": 5},
        )
        code, stdout, _ = run_cli(
            capsys, "tune", "--config", str(cfg), "--r-grid", "0.25",
            "--alpha-grid", "0.0,0.5", "--layer-grids", "1-2",
            "--out", str(tmp_path / "sweep.json"),
        )
        assert code == 0
        sweep = json.loads((tmp_path / "sweep.json").read_text())
        assert sweep["selected"]["r"] == 0.25
        assert len(sweep["stages"]) == 3
