"""Run configuration: one JSON file, strict validation, env overrides.

The file is read by `schema` into `RunConfig` and its section dataclasses,
so every problem is a ConfigError naming the dotted key. Any key can be
overridden with SPIN__SECTION__KEY environment variables (e.g.
SPIN__DECODE__SEED=7); values are parsed as JSON with a plain-string
fallback. Relative paths resolve against the config file's directory.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import schema
from .decoding import DecodeConfig
from .errors import ConfigError, ConfigNotFoundError, ConfigSyntaxError
from .model import ModelConfig
from .spin import SpinConfig

SECTIONS = ("model", "spin", "decode", "eval", "output", "tune")


def _require(cond: bool, key: str, msg: str):
    if not cond:
        raise ConfigError(f"{key}: {msg}")


@dataclass(frozen=True)
class ModelInit:
    seed: int
    config: ModelConfig


@dataclass(frozen=True)
class ModelSection:
    checkpoint: str | None = None
    init: ModelInit | None = None

    def __post_init__(self):
        _require((self.checkpoint is None) != (self.init is None), "model",
                 "exactly one of 'checkpoint' and 'init' must be present")


@dataclass(frozen=True)
class EvalSection:
    corpus: str
    vocab: str
    tokens: str
    chair: bool = True
    pope: bool = True
    pope_mode: str = "multi_turn"  # or "single_turn"
    pope_max_new_tokens: int = 8
    workers: int = 1  # kept for old configs and ignored: batched decoding is bitwise, so there is no width to set
    max_records: int | None = None

    def __post_init__(self):
        _require(self.pope_mode in ("multi_turn", "single_turn"), "eval.pope_mode",
                 f"must be 'multi_turn' or 'single_turn', got {self.pope_mode!r}")
        _require(self.workers >= 1, "eval.workers", f"must be >= 1, got {self.workers}")
        _require(self.pope_max_new_tokens >= 1, "eval.pope_max_new_tokens",
                 f"must be >= 1, got {self.pope_max_new_tokens}")
        _require(self.max_records is None or self.max_records >= 1, "eval.max_records",
                 f"must be >= 1 or null, got {self.max_records}")


@dataclass(frozen=True)
class OutputSection:
    report_json: str | None = None
    report_csv: str | None = None
    trace_masks: str | None = None


@dataclass(frozen=True)
class TuneSection:
    """The sweep of `tune`: `analytics.tune_three_stage`'s keyword arguments."""
    r_grid: list[float]
    alpha_grid: list[float]
    layer_grids: list[list[int]] | None = None  # [lo, hi] ranges; null: `default_layer_grids`
    strategy: str = "image_attention"
    f1_drop_limit: float = 0.03
    tradeoff_lambda: float = 1.0

    def __post_init__(self):
        for i, g in enumerate(self.layer_grids or []):
            _require(len(g) == 2, f"tune.layer_grids[{i}]", f"expected [lo, hi], got {g!r}")
        for name in ("f1_drop_limit", "tradeoff_lambda"):
            _require(math.isfinite(getattr(self, name)), f"tune.{name}", f"must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    spin: SpinConfig | None = None
    eval: EvalSection | None = None
    output: OutputSection = field(default_factory=OutputSection)
    tune: TuneSection | None = None

    def to_dict(self) -> dict:
        return {
            "model": {k: v for k, v in asdict(self.model).items() if v is not None},
            "spin": self.spin.to_dict() if self.spin else None,
            "decode": asdict(self.decode),
            "eval": asdict(self.eval) if self.eval else None,
            "output": asdict(self.output),
            "tune": asdict(self.tune) if self.tune else None,
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
            parsed = schema.parse(value, key, ConfigSyntaxError)
        except ConfigSyntaxError:
            parsed = value  # not JSON: a plain string
        node, dotted = raw, []
        for name in [section] + [q.lower() for q in parts[1:-1]]:
            dotted.append(name)
            child = {} if node.get(name) is None else node[name]  # null is absent; the path's dicts are copied
            node[name] = node = dict(schema.read(dict, child, ".".join(dotted), ConfigError, key))
        node[parts[-1].lower()] = parsed
    return raw


def parse_run_config(raw: dict, base_dir: str | Path = ".", environ=None) -> RunConfig:
    """Validate a raw config dict (already parsed from JSON); a null section
    is an absent one."""
    raw = {k: v for k, v in _apply_env_overrides(dict(raw), environ).items() if v is not None}
    spin = SpinConfig.from_dict(raw.pop("spin")) if "spin" in raw else None
    cfg = schema.read(RunConfig, raw, "", ConfigError)

    def resolve(key: str, p: str, must_exist: bool = True) -> str:
        path = p if Path(p).is_absolute() else str((Path(base_dir) / p).resolve())
        _require(not must_exist or Path(path).is_file(), key, f"file not found: {path}")
        return path

    model, ev, out = cfg.model, cfg.eval, cfg.output
    if model.checkpoint is not None:
        model = replace(model, checkpoint=resolve("model.checkpoint", model.checkpoint))
    if ev is not None:
        ev = replace(ev, **{n: resolve(f"eval.{n}", getattr(ev, n)) for n in ("corpus", "vocab", "tokens")})
    out = replace(out, **{n: resolve(n, p, False) for n, p in asdict(out).items() if p is not None})
    return replace(cfg, model=model, spin=spin, eval=ev, output=out)


def load_run_config(path: str | Path, environ=None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigNotFoundError(f"config file not found: {path}")
    raw = schema.load(dict, path.read_text(encoding="utf-8"), str(path), ConfigSyntaxError)
    return parse_run_config(raw, base_dir=path.parent, environ=environ)
