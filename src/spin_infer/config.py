"""Run configuration: one JSON file, strict validation, env overrides.

One reader, `_section`, builds the `decode`, `eval`, `output` and
`model.init.config` sections (and `load_checkpoint` reads a checkpoint
header's model config with it): it rejects unknown keys and missing required
fields, checks each value's JSON type against the dataclass annotation, and
leaves range checks to the dataclass's `__post_init__`. Any key can be
overridden with SPIN__SECTION__KEY environment variables (e.g.
SPIN__DECODE__SEED=7); values are parsed as JSON with a plain-string
fallback. Relative paths resolve against the config file's directory.
Validation failures name the offending dotted key. A spin file goes
through the same JSON file reader.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .decoding import DecodeConfig
from .errors import ConfigError, ConfigNotFoundError, ConfigSyntaxError
from .model import ModelConfig
from .spin import SpinConfig

SECTIONS = ("model", "spin", "decode", "eval", "output")


@dataclass(frozen=True)
class ModelSection:
    checkpoint: str | None = None
    init_seed: int | None = None
    init_config: ModelConfig | None = None

    def to_dict(self) -> dict:
        if self.checkpoint is not None:
            return {"checkpoint": self.checkpoint}
        return {"init": {"seed": self.init_seed, "config": self.init_config.to_dict()}}


@dataclass(frozen=True)
class EvalSection:
    corpus: str
    vocab: str
    tokens: str
    chair: bool = True
    pope: bool = True
    pope_mode: str = "multi_turn"  # or "single_turn"
    pope_max_new_tokens: int = 8
    workers: int = 1
    max_records: int | None = None

    def __post_init__(self):
        if self.pope_mode not in ("multi_turn", "single_turn"):
            raise ConfigError(
                f"eval.pope_mode must be 'multi_turn' or 'single_turn', got {self.pope_mode!r}"
            )
        if self.workers < 1:
            raise ConfigError(f"eval.workers must be >= 1, got {self.workers}")
        if self.pope_max_new_tokens < 1:
            raise ConfigError(f"eval.pope_max_new_tokens must be >= 1, got {self.pope_max_new_tokens}")
        if self.max_records is not None and self.max_records < 1:
            raise ConfigError(f"eval.max_records must be >= 1 or null, got {self.max_records}")


@dataclass(frozen=True)
class OutputSection:
    report_json: str | None = None
    report_csv: str | None = None
    trace_masks: str | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection
    decode: DecodeConfig
    spin: SpinConfig | None = None
    eval: EvalSection | None = None
    output: OutputSection = field(default_factory=OutputSection)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "spin": self.spin.to_dict() if self.spin else None,
            "decode": asdict(self.decode),
            "eval": asdict(self.eval) if self.eval else None,
            "output": asdict(self.output),
        }


def _apply_env_overrides(raw: dict, environ=None) -> dict:
    env = os.environ if environ is None else environ
    for key, value in sorted(env.items()):
        if not key.startswith("SPIN__"):
            continue
        parts = key.split("__")[1:]
        if len(parts) < 2 or not all(parts):
            raise ConfigError(f"bad override variable {key}: want SPIN__SECTION__KEY")
        section = parts[0].lower()
        if section not in SECTIONS:
            raise ConfigError(f"bad override variable {key}: unknown section {section!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw.setdefault(section, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {key}: section {section!r} is not an object")
        for p in parts[1:-1]:
            node = node.setdefault(p.lower(), {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {key}: {p.lower()!r} is not an object")
        node[parts[-1].lower()] = parsed
    return raw


def _require(cond: bool, key: str, msg: str):
    if not cond:
        raise ConfigError(f"{key}: {msg}")


def _check_type(value, hint, key: str) -> None:
    """`value` must be a JSON value of a type `hint` allows."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        ok = bool in allowed
    else:
        ok = isinstance(value, allowed) or (isinstance(value, int) and float in allowed)
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    _require(ok, key, f"expected {names}, got {value!r}")


def _section(cls, raw, key: str):
    """Build dataclass `cls` from the JSON object `raw` of section `key`."""
    _require(isinstance(raw, dict), key, "must be an object")
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in fields(cls)}
    extra = set(raw) - set(known)
    _require(not extra, key, f"unknown keys: {sorted(extra)}")
    for name, f in known.items():
        if name in raw:
            _check_type(raw[name], hints[name], f"{key}.{name}")
        else:
            _require(f.default is not MISSING, f"{key}.{name}", "missing")
    try:
        return cls(**raw)
    except ConfigError as e:
        raise ConfigError(f"{key}: {e}") from e


def _resolve_path(base: Path, p: str) -> str:
    return str((base / p).resolve()) if not Path(p).is_absolute() else p


def _parse_model(raw, base: Path) -> ModelSection:
    _require(isinstance(raw, dict), "model", "must be an object")
    extra = set(raw) - {"checkpoint", "init"}
    _require(not extra, "model", f"unknown keys: {sorted(extra)}")
    has_ckpt = raw.get("checkpoint") is not None
    has_init = raw.get("init") is not None
    _require(has_ckpt != has_init, "model", "exactly one of 'checkpoint' and 'init' must be present")
    if has_ckpt:
        _check_type(raw["checkpoint"], str, "model.checkpoint")
        path = _resolve_path(base, raw["checkpoint"])
        if not Path(path).is_file():
            raise ConfigError(f"model.checkpoint: file not found: {path}")
        return ModelSection(checkpoint=path)
    init = raw["init"]
    _require(isinstance(init, dict), "model.init", "must be an object")
    extra = set(init) - {"seed", "config"}
    _require(not extra, "model.init", f"unknown keys: {sorted(extra)}")
    _require("seed" in init, "model.init.seed", "missing")
    _check_type(init["seed"], int, "model.init.seed")
    _require("config" in init, "model.init.config", "missing")
    mc = _section(ModelConfig, init["config"], "model.init.config")
    return ModelSection(init_seed=init["seed"], init_config=mc)


def _parse_spin(raw) -> SpinConfig:
    _require(isinstance(raw, dict), "spin", "must be an object")
    hints = typing.get_type_hints(SpinConfig)
    for name, value in raw.items():
        if name == "layer_range":
            _require(isinstance(value, list) and len(value) == 2, "spin.layer_range",
                     f"expected [lo, hi], got {value!r}")
            for v in value:
                _check_type(v, int, "spin.layer_range")
        elif name in hints:
            _check_type(value, hints[name], f"spin.{name}")
    try:
        return SpinConfig.from_dict(raw)
    except ConfigError as e:
        raise ConfigError(f"spin: {e}") from e


def _parse_eval(raw, base: Path) -> EvalSection:
    ev = _section(EvalSection, raw, "eval")
    paths = {n: _resolve_path(base, getattr(ev, n)) for n in ("corpus", "vocab", "tokens")}
    for n, path in paths.items():
        _require(Path(path).is_file(), f"eval.{n}", f"file not found: {path}")
    return replace(ev, **paths)


def _parse_output(raw, base: Path) -> OutputSection:
    out = _section(OutputSection, raw, "output")
    return replace(out, **{n: _resolve_path(base, p) for n, p in asdict(out).items() if p is not None})


def parse_run_config(raw: dict, base_dir: str | Path = ".", environ=None) -> RunConfig:
    """Validate a raw config dict (already parsed from JSON)."""
    raw = _apply_env_overrides(dict(raw), environ)
    extra = set(raw) - set(SECTIONS)
    _require(not extra, "config", f"unknown sections: {sorted(extra)}")
    _require("model" in raw, "model", "section missing")
    base = Path(base_dir)
    given = {k: v for k, v in raw.items() if v is not None}
    return RunConfig(
        model=_parse_model(raw["model"], base),
        spin=_parse_spin(given["spin"]) if "spin" in given else None,
        decode=_section(DecodeConfig, given.get("decode", {}), "decode"),
        eval=_parse_eval(given["eval"], base) if "eval" in given else None,
        output=_parse_output(given.get("output", {}), base),
    )


def _read_json(path: Path, what: str) -> dict:
    """Parse a JSON file whose top level must be one object."""
    if not path.is_file():
        raise ConfigNotFoundError(f"{what} file not found: {path}")
    text = path.read_text(encoding="utf-8")
    try:
        raw, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError as e:
        raise ConfigSyntaxError(f"{path}:{e.lineno}: {e.msg}") from e
    if text[end:].strip():
        lineno = text[:end].count("\n") + 1
        raise ConfigSyntaxError(f"{path}:{lineno}: trailing garbage after {what} object")
    if not isinstance(raw, dict):
        raise ConfigSyntaxError(f"{path}: top level must be a JSON object")
    return raw


def load_run_config(path: str | Path, environ=None) -> RunConfig:
    path = Path(path)
    return parse_run_config(_read_json(path, "config"), base_dir=path.parent, environ=environ)


def load_spin_config(path: str | Path) -> SpinConfig:
    """Read a spin file: a bare spin section or an object with a "spin" key."""
    raw = _read_json(Path(path), "spin config")
    return _parse_spin(raw.get("spin", raw))
