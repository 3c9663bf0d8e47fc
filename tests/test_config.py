import inspect
import json
import re
from dataclasses import fields

import pytest

from spin_infer.analytics import tune_three_stage
from spin_infer.config import load_run_config, parse_run_config
from spin_infer.errors import ConfigError, ConfigNotFoundError, ConfigSyntaxError


DROP = object()  # marks a key to delete


def minimal_raw(workspace):
    return {
        "model": {"checkpoint": str(workspace.checkpoint)},
        "eval": {
            "corpus": str(workspace.corpus),
            "vocab": str(workspace.vocab),
            "tokens": str(workspace.tokens),
        },
    }


class TestDefaults:
    def test_minimal_config_fills_defaults(self, workspace):
        cfg = parse_run_config(minimal_raw(workspace), environ={})
        assert cfg.decode.beam_width == 5
        assert cfg.decode.repetition_penalty == 1.0
        assert cfg.spin is None
        assert cfg.eval.pope_mode == "multi_turn"
        assert cfg.output.report_json is None

    def test_spin_defaults(self, workspace):
        raw = minimal_raw(workspace)
        raw["spin"] = {"r": 0.25, "layer_range": [1, 2]}
        cfg = parse_run_config(raw, environ={})
        assert cfg.spin.apply_to == "all_text_queries"
        assert cfg.spin.strategy == "image_attention"
        assert cfg.spin.alpha == 0.0

    def test_tune_defaults_are_the_tuners(self, workspace):
        """The section's keys are `tune_three_stage`'s keyword parameters, and an absent key takes the
        tuner's own default."""
        raw = minimal_raw(workspace)
        raw["tune"] = {"r_grid": [0.25], "alpha_grid": [0.0]}
        tune = parse_run_config(raw, environ={}).tune
        params = inspect.signature(tune_three_stage).parameters
        assert [f.name for f in fields(tune)] == list(params)[2:]  # after eval_fn and n_layers
        for name in ("layer_grids", "strategy", "f1_drop_limit", "tradeoff_lambda"):
            assert getattr(tune, name) == params[name].default
        assert parse_run_config(minimal_raw(workspace), environ={}).tune is None


class TestValidation:
    def test_spin_r_out_of_range_names_key(self, workspace):
        raw = minimal_raw(workspace)
        raw["spin"] = {"r": 1.2, "layer_range": [1, 2]}
        with pytest.raises(ConfigError, match=r"spin\.r"):
            parse_run_config(raw, environ={})

    def test_checkpoint_and_init_conflict(self, workspace):
        """`model.init` is gone: a model comes from a checkpoint file, as `init-ckpt` writes one. An old
        config that names `init`, with or without a checkpoint, is an unknown key."""
        init = {"seed": 1, "config": workspace.model_config.to_dict()}
        for model in ({"checkpoint": str(workspace.checkpoint), "init": init}, {"init": init}):
            raw = minimal_raw(workspace)
            raw["model"] = model
            with pytest.raises(ConfigError, match=r"^model: unknown keys: \['init'\]$"):
                parse_run_config(raw, environ={})

    def test_neither_checkpoint_nor_init(self, workspace):
        raw = minimal_raw(workspace)
        raw["model"] = {}
        with pytest.raises(ConfigError, match=r"^model\.checkpoint: missing$"):
            parse_run_config(raw, environ={})

    def test_missing_referenced_file_names_key(self, workspace, tmp_path):
        raw = minimal_raw(workspace)
        raw["eval"]["corpus"] = str(tmp_path / "nope.jsonl")
        with pytest.raises(ConfigError, match=r"eval\.corpus"):
            parse_run_config(raw, environ={})

    def test_unknown_section_rejected(self, workspace):
        raw = minimal_raw(workspace)
        raw["bogus"] = {}
        with pytest.raises(ConfigError, match=r"unknown keys: \['bogus'\]"):
            parse_run_config(raw, environ={})

    def test_unknown_decode_key_rejected(self, workspace):
        raw = minimal_raw(workspace)
        raw["decode"] = {"temperature": 0.7}
        with pytest.raises(ConfigError, match="decode"):
            parse_run_config(raw, environ={})

    def test_bad_pope_mode(self, workspace):
        raw = minimal_raw(workspace)
        raw["eval"]["pope_mode"] = "telepathy"
        with pytest.raises(ConfigError, match=r"eval\.pope_mode"):
            parse_run_config(raw, environ={})

    @pytest.mark.parametrize(
        "dotted,value",
        [
            ("eval.workers", "two"),
            ("eval.pope_max_new_tokens", "8"),
            ("eval.max_records", "3"),
            ("eval.max_records", 0),
            ("eval.max_records", -1),
            ("eval.chair", 1),
            ("decode.max_new_tokens", 2.5),
            ("decode.beam_width", "3"),
            ("output.report_json", 5),
            ("model.checkpoint", 5),
            ("spin.r", False),
            ("spin.layer_range", [1.5, 2]),
            ("spin.layer_range", "1-2"),
            ("eval.corpus", DROP),
        ],
    )
    def test_bad_value_names_dotted_key(self, workspace, dotted, value):
        raw = minimal_raw(workspace)
        *parents, leaf = dotted.split(".")
        node = raw
        for name in parents:
            node = node.setdefault(name, {})
        if value is DROP:
            del node[leaf]
        else:
            node[leaf] = value
        with pytest.raises(ConfigError, match=re.escape(dotted)):
            parse_run_config(raw, environ={})


class TestFileLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigNotFoundError):
            load_run_config(tmp_path / "absent.json")

    def test_malformed_syntax_reports_line(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text('{\n  "model": {,}\n}')
        with pytest.raises(ConfigSyntaxError, match=":2"):
            load_run_config(p)

    def test_trailing_garbage_rejected(self, workspace, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(minimal_raw(workspace)) + "\ntrailing")
        with pytest.raises(ConfigSyntaxError, match="trailing"):
            load_run_config(p)

    def test_relative_paths_resolve_against_config_dir(self, workspace, tmp_path):
        import shutil

        shutil.copy(workspace.checkpoint, tmp_path / "model.spnm")
        raw = minimal_raw(workspace)
        raw["model"] = {"checkpoint": "model.spnm"}
        p = tmp_path / "run.json"
        p.write_text(json.dumps(raw))
        cfg = load_run_config(p, environ={})
        assert cfg.model.checkpoint == str(tmp_path / "model.spnm")


class TestEnvOverrides:
    def test_decode_seed_override(self, workspace):
        cfg = parse_run_config(minimal_raw(workspace), environ={"SPIN__DECODE__SEED": "42"})
        assert cfg.decode.seed == 42

    def test_string_fallback(self, workspace):
        cfg = parse_run_config(
            minimal_raw(workspace), environ={"SPIN__DECODE__STRATEGY": "nucleus"}
        )
        assert cfg.decode.strategy == "nucleus"

    def test_json_values(self, workspace):
        cfg = parse_run_config(
            minimal_raw(workspace),
            environ={"SPIN__SPIN__R": "0.25", "SPIN__SPIN__LAYER_RANGE": "[1, 2]"},
        )
        assert cfg.spin.r == 0.25
        assert (cfg.spin.layer_lo, cfg.spin.layer_hi) == (1, 2)

    def test_override_still_validated(self, workspace):
        with pytest.raises(ConfigError, match=r"decode"):
            parse_run_config(minimal_raw(workspace), environ={"SPIN__DECODE__BEAM_WIDTH": "0"})

    def test_bad_section_rejected(self, workspace):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_run_config(minimal_raw(workspace), environ={"SPIN__NOPE__X": "1"})
        for key in ("SPIN__DECODE", "SPIN__DECODE__", "SPIN____SEED"):  # a section without a key, or an empty part
            with pytest.raises(ConfigError, match=f"^bad override variable {key}: want SPIN__SECTION__KEY$"):
                parse_run_config(minimal_raw(workspace), environ={key: "1"})

    def test_null_section_takes_overrides(self, workspace):
        raw = minimal_raw(workspace)
        raw["spin"] = None
        cfg = parse_run_config(raw, environ={"SPIN__SPIN__R": "0.5", "SPIN__SPIN__LAYER_RANGE": "[1, 2]"})
        assert (cfg.spin.r, cfg.spin.layer_lo, cfg.spin.layer_hi) == (0.5, 1, 2)

    def test_override_leaves_callers_dict_alone(self, workspace):
        raw = minimal_raw(workspace)
        raw["decode"] = {"seed": 1}
        before = json.dumps(raw, sort_keys=True)
        assert parse_run_config(raw, environ={"SPIN__DECODE__SEED": "42"}).decode.seed == 42
        assert json.dumps(raw, sort_keys=True) == before


class TestRoundtrip:
    def test_to_dict_reparses_identically(self, workspace):
        raw = minimal_raw(workspace)
        raw["spin"] = {"r": 0.5, "alpha": 0.1, "layer_range": [1, 2]}
        raw["decode"] = {"strategy": "beam", "beam_width": 3, "max_new_tokens": 4}
        cfg = parse_run_config(raw, environ={})
        again = parse_run_config(cfg.to_dict(), environ={})
        assert again == cfg

    def test_golden_every_field_set(self, workspace, tmp_path):
        # recorded from the per-section codecs before RunConfig.to_dict used
        # dataclasses.asdict; every report embeds this dict
        (tmp_path / "model.spnm").write_bytes(b"")  # parsing only checks that the file exists
        raw = {
            "model": {"checkpoint": "model.spnm"},
            "spin": {"strategy": "key_norm", "r": 0.5, "alpha": 0.25, "layer_range": [2, 2],
                     "apply_to": "generated_text_queries_only"},
            "decode": {"strategy": "nucleus", "beam_width": 3, "nucleus_p": 0.8,
                       "repetition_penalty": 1.3, "max_new_tokens": 6, "eos_id": None, "seed": 11},
            "eval": {"corpus": str(workspace.corpus), "vocab": str(workspace.vocab),
                     "tokens": str(workspace.tokens), "chair": False, "pope": False,
                     "pope_mode": "single_turn", "pope_max_new_tokens": 3, "workers": 2,
                     "max_records": 4},
            "output": {"report_json": "r.json", "report_csv": "r.csv", "trace_masks": "m.jsonl"},
            "tune": {"r_grid": [0.1, 0.5], "alpha_grid": [0.0, 1], "layer_grids": [[1, 2], [2, 2]],
                     "strategy": "query_norm", "f1_drop_limit": 0.1, "tradeoff_lambda": 2.5},
        }
        cfg = parse_run_config(raw, base_dir=tmp_path, environ={})
        assert cfg.to_dict() == {
            "model": {"checkpoint": str(tmp_path / "model.spnm")},
            "spin": {
                "strategy": "key_norm",
                "r": 0.5,
                "alpha": 0.25,
                "layer_range": [2, 2],
                "apply_to": "generated_text_queries_only",
            },
            "decode": {
                "strategy": "nucleus",
                "beam_width": 3,
                "nucleus_p": 0.8,
                "repetition_penalty": 1.3,
                "max_new_tokens": 6,
                "eos_id": None,
                "seed": 11,
            },
            "eval": {
                "corpus": str(workspace.corpus),
                "vocab": str(workspace.vocab),
                "tokens": str(workspace.tokens),
                "chair": False,
                "pope": False,
                "pope_mode": "single_turn",
                "pope_max_new_tokens": 3,
                "workers": 2,
                "max_records": 4,
            },
            "output": {
                "report_json": str(tmp_path / "r.json"),
                "report_csv": str(tmp_path / "r.csv"),
                "trace_masks": str(tmp_path / "m.jsonl"),
            },
            "tune": {
                "r_grid": [0.1, 0.5],
                "alpha_grid": [0.0, 1],
                "layer_grids": [[1, 2], [2, 2]],
                "strategy": "query_norm",
                "f1_drop_limit": 0.1,
                "tradeoff_lambda": 2.5,
            },
        }
        assert parse_run_config(cfg.to_dict(), environ={}) == cfg
