"""Attention profiling, head-mask aggregation, and hyperparameter tuning.

The profiler measures where generated-token queries put their post-softmax
attention mass (vision span vs everything else), per layer, averaged over
steps and heads. This is deliberately separate from the pre-softmax logit
sums used to rank heads for suppression.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import schema
from .decoding import DecodeConfig, generate
from .engine import Engine, MaskPolicy, MultimodalPrompt, _softmax
from .errors import ConfigError, DataError
from .spin import SpinConfig


@dataclass
class AttentionProfile:
    vision: np.ndarray  # (n_layers,) mean post-softmax mass on the vision span
    text: np.ndarray  # (n_layers,) mean mass everywhere else
    n_steps: int  # generated-token query steps accumulated

    def to_rows(self) -> list[tuple[int, float, float]]:
        return [(l + 1, float(v), float(t)) for l, (v, t) in enumerate(zip(self.vision, self.text))]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["layer", "vision_fraction", "text_fraction"])
            w.writerows(self.to_rows())

    def to_dict(self) -> dict:
        return {"vision": self.vision.tolist(), "text": self.text.tolist(), "n_steps": self.n_steps}


def profile_attention(
    engine: Engine,
    prompts: Iterable[MultimodalPrompt],
    decode_config: DecodeConfig,
    policy: MaskPolicy | None = None,
) -> AttentionProfile:
    """Run generation and accumulate per-layer vision/text attention mass
    for every generated-token query, every head.

    The mass is read through the mask policy hook: on decode rows, a probe
    softmaxes a copy of the layer's logits with the engine's own scale and
    softmax, then returns `policy`'s masks (if any)."""
    n_layers = engine.config.n_layers
    sums_v = np.zeros(n_layers, dtype=np.float64)
    sums_t = np.zeros(n_layers, dtype=np.float64)
    counts = np.zeros(n_layers, dtype=np.int64)

    def probe(layer, q, keys, logits, positions, layout):
        if positions[0] >= layout.prompt_len:  # a decode step: one row per stream
            for w in _softmax(logits * engine._inv_sqrt_dk).astype(np.float64)[:, :, 0]:  # (H, S) per stream
                v = w[:, layout.i_start : layout.i_end].sum(axis=1)
                sums_v[layer] += v.sum()
                sums_t[layer] += (w.sum(axis=1) - v).sum()
                counts[layer] += len(w)
        return None if policy is None else policy(layer, q, keys, logits, positions, layout)

    n_prompts = 0
    for prompt in prompts:
        n_prompts += 1
        generate(engine, prompt, decode_config, probe)
    if n_prompts == 0:
        raise DataError("profile_attention needs a non-empty corpus")
    if counts.min() < 1:
        raise DataError("profile_attention saw no generated-token query steps")
    return AttentionProfile(
        vision=sums_v / counts, text=sums_t / counts, n_steps=int(counts[0] // engine.config.n_heads)
    )


@dataclass
class MaskHeatmap:
    values: np.ndarray  # (n_layers, n_heads) fraction of traced steps kept
    steps_per_layer: np.ndarray  # (n_layers,) traced step count (0 outside range)
    n_layers: int
    n_heads: int

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["layer", "head", "value"])
            for l in range(self.n_layers):
                for h in range(self.n_heads):
                    w.writerow([l + 1, h, float(self.values[l, h])])

    def to_dict(self) -> dict:
        return {**asdict(self), "values": self.values.tolist(), "steps_per_layer": self.steps_per_layer.tolist()}


@dataclass(frozen=True)
class TraceMeta:
    n_layers: int
    n_heads: int
    spin: dict | None = None

    def __post_init__(self):
        if min(self.n_layers, self.n_heads) < 1:
            raise DataError(f"n_layers and n_heads must be >= 1, got {self.n_layers} and {self.n_heads}")


@dataclass(frozen=True)
class TraceHeader:  # a trace's first line
    meta: TraceMeta


@dataclass
class TraceRecord:  # one mask row: query position, 1-indexed layer, a multiplier per head
    pos: int
    layer: int
    mask: list[float]


def _read_trace(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Per layer x head kept counts and per layer step counts of one trace."""
    meta = kept = steps = None
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if text.isspace():
                continue
            if meta is None:
                meta = schema.load(TraceHeader, text, str(path), DataError, lineno).meta
                kept = np.zeros((meta.n_layers, meta.n_heads), dtype=np.int64)
                steps = np.zeros(meta.n_layers, dtype=np.int64)
                continue
            rec = schema.load(TraceRecord, text, str(path), DataError, lineno)
            layer = rec.layer - 1
            if not 0 <= layer < meta.n_layers or len(rec.mask) != meta.n_heads:
                raise DataError(f"{path}:{lineno}: trace record shape does not match meta header")
            try:
                mask = np.array(rec.mask, dtype=np.float64)
            except OverflowError as e:  # a JSON integer beyond float range
                raise DataError(f"{path}:{lineno}: mask: {e}") from None
            if not np.isfinite(mask).all():
                raise DataError(f"{path}:{lineno}: mask: entries must be finite (found NaN or inf)")
            kept[layer] += mask == 1.0
            steps[layer] += 1
    if meta is None:
        raise DataError(f"{path}: empty mask trace")
    return kept, steps


def aggregate_masks(paths: Sequence[str | Path]) -> MaskHeatmap:
    """Merge mask traces into a layer x head kept-fraction heatmap.

    Layers never traced (outside every trace's layer range) read exactly 1.
    Traces are weighted by their step counts.
    """
    if not paths:
        raise DataError("aggregate_masks needs at least one trace file")
    kept_total, steps_total = _read_trace(paths[0])
    shape = kept_total.shape
    for path in paths[1:]:
        kept, steps = _read_trace(path)
        if kept.shape != shape:
            raise DataError(f"{path}: trace shape {kept.shape} does not match {shape}")
        kept_total += kept
        steps_total += steps
    values = np.ones(shape, dtype=np.float64)
    traced = steps_total > 0
    values[traced] = kept_total[traced] / steps_total[traced, None]
    return MaskHeatmap(values=values, steps_per_layer=steps_total, n_layers=shape[0], n_heads=shape[1])


def default_layer_grids(n_layers: int) -> list[tuple[int, int]]:
    """Prefix ranges [1, L0] and suffix ranges [L0, L] for L0 at 1/2, 5/8,
    3/4 and all of the stack."""
    cuts = [max(1, int(np.floor(frac * n_layers + 0.5))) for frac in (0.5, 0.625, 0.75, 1.0)]
    return list(dict.fromkeys([(1, c) for c in cuts] + [(c, n_layers) for c in cuts]))


@dataclass
class SweepEntry:
    config: SpinConfig
    metrics: dict[str, float]
    objective: float | None = None
    satisfies_constraint: bool | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "config": self.config.to_dict()}


@dataclass
class SweepStage:
    name: str
    entries: list[SweepEntry]
    selected_index: int

    @property
    def selected(self) -> SweepEntry:
        return self.entries[self.selected_index]

    def to_dict(self) -> dict:
        return {**asdict(self), "entries": [e.to_dict() for e in self.entries]}


@dataclass
class SweepResult:
    baseline: dict[str, float]
    stages: list[SweepStage]
    selected: SpinConfig
    f1_drop_limit: float
    tradeoff_lambda: float

    def to_dict(self) -> dict:
        return {**asdict(self), "stages": [s.to_dict() for s in self.stages], "selected": self.selected.to_dict()}


EvalFn = Callable[[SpinConfig | None], Mapping[str, float]]


def tune_three_stage(
    eval_fn: EvalFn,
    n_layers: int,
    r_grid: Sequence[float],
    alpha_grid: Sequence[float],
    layer_grids: Sequence[tuple[int, int]] | None = None,
    strategy: str = "image_attention",
    f1_drop_limit: float = 0.03,
    tradeoff_lambda: float = 1.0,
) -> SweepResult:
    """Three-stage hyperparameter selection.

    Stage 1 sweeps r with alpha=0 over all layers and keeps the r with the
    lowest C_s whose F1 drop vs baseline stays within `f1_drop_limit` (if no
    candidate satisfies the constraint, the smallest drop wins). Stage 2
    fixes r and sweeps layer ranges for minimal C_s. Stage 3 fixes both and
    picks alpha minimizing C_s + lambda * (baseline F1 - F1). Ties always go
    to the earliest grid entry, so the tuner is deterministic.

    `eval_fn(None)` must return the baseline metrics; every call returns a
    mapping with keys "c_s" and "f1".
    """
    if not r_grid or not alpha_grid:
        raise ConfigError("tuner grids for r and alpha must be non-empty")
    if layer_grids is None:
        layer_grids = default_layer_grids(n_layers)
    if not layer_grids:
        raise ConfigError("tuner layer grid must be non-empty")

    def spin(r: float, alpha: float, lo: int, hi: int) -> SpinConfig:
        return SpinConfig(strategy=strategy, r=r, alpha=alpha, layer_lo=lo, layer_hi=hi)

    # every grid value must make a valid config before the first eval runs
    ratios = [spin(r, 0.0, 1, n_layers) for r in r_grid]
    for cfg in ratios + [spin(0.0, a, 1, n_layers) for a in alpha_grid] + [spin(0.0, 0.0, *g) for g in layer_grids]:
        cfg.check_layers(n_layers)

    memo: dict[SpinConfig | None, dict[str, float]] = {}

    def run(cfg: SpinConfig | None) -> dict[str, float]:
        if cfg not in memo:
            m = eval_fn(cfg)
            memo[cfg] = {"c_s": float(m["c_s"]), "f1": float(m["f1"])}
        return dict(memo[cfg])

    baseline = run(None)
    stages: list[SweepStage] = []

    def stage(name: str, configs: list[SpinConfig], entry: Callable, rank: Callable) -> SpinConfig:
        """Evaluate `configs` in order and select the entry of the lowest rank; `min` keeps the earliest on ties."""
        entries = [entry(cfg, run(cfg)) for cfg in configs]
        selected = min(range(len(entries)), key=lambda i: rank(entries[i]))
        stages.append(SweepStage(name, entries, selected))
        return entries[selected].config

    def drop_entry(cfg: SpinConfig, m: dict[str, float]) -> SweepEntry:
        drop = baseline["f1"] - m["f1"]
        return SweepEntry(cfg, {**m, "f1_drop": drop}, satisfies_constraint=drop <= f1_drop_limit)

    # stage 1: ratio of suppressed heads, full stack, hard pruning; any entry within the F1 drop limit
    # outranks every entry beyond it
    ratio = stage("suppression_ratio", ratios, drop_entry,
                  lambda e: (0, e.metrics["c_s"]) if e.satisfies_constraint else (1, e.metrics["f1_drop"])).r
    # stage 2: layer range at the chosen r
    layers = stage("layer_range", [spin(ratio, 0.0, lo, hi) for lo, hi in layer_grids], SweepEntry,
                   lambda e: e.metrics["c_s"])
    # stage 3: suppression factor, scalarized hallucination/F1 trade-off
    selected = stage(
        "suppression_factor", [spin(ratio, a, layers.layer_lo, layers.layer_hi) for a in alpha_grid],
        lambda cfg, m: SweepEntry(cfg, m, objective=m["c_s"] + tradeoff_lambda * (baseline["f1"] - m["f1"])),
        lambda e: e.objective,
    )
    return SweepResult(baseline, stages, selected, f1_drop_limit, tradeoff_lambda)
