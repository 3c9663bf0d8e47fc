"""Attention-guided head suppression.

For every text query token we rank the heads of a layer by how much
attention they pay to the vision span (pre-softmax logit mass),
keep the top K = H - round(r*H) heads intact, and scale every other head's
attention output by the suppression factor alpha. Masks are recomputed
fresh for every query position, so the suppressed subset is dynamic.
"""

from __future__ import annotations

import copy
import io
import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import schema
from .engine import PromptLayout
from .errors import ConfigError

STRATEGIES = ("image_attention", "total_attention", "query_norm", "key_norm")
APPLY_MODES = ("all_text_queries", "generated_text_queries_only")


@dataclass(frozen=True)
class SpinConfig:
    strategy: str = "image_attention"
    r: float = 0.0
    alpha: float = 0.0
    layer_lo: int = 1  # inclusive, 1-indexed
    layer_hi: int = 1
    apply_to: str = "all_text_queries"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"spin.strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not 0.0 <= self.r < 1.0:
            raise ConfigError(f"spin.r must be in [0, 1), got {self.r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"spin.alpha must be in [0, 1], got {self.alpha}")
        if not 1 <= self.layer_lo <= self.layer_hi:
            raise ConfigError(
                f"spin.layer_range must satisfy 1 <= lo <= hi, got [{self.layer_lo}, {self.layer_hi}]"
            )
        if self.apply_to not in APPLY_MODES:
            raise ConfigError(f"spin.apply_to must be one of {APPLY_MODES}, got {self.apply_to!r}")

    def check_layers(self, n_layers: int) -> None:
        """Raise ConfigError unless the layer range fits an n_layers model."""
        if self.layer_hi > n_layers:
            raise ConfigError(f"spin.layer_range [{self.layer_lo}, {self.layer_hi}] exceeds n_layers {n_layers}")

    @classmethod
    def from_dict(cls, raw) -> SpinConfig:
        """A run config's spin section, which writes the layer range as `layer_range` [lo, hi]."""
        raw = dict(schema.read(dict, raw, "spin", ConfigError))
        if raw.keys() & {"layer_lo", "layer_hi"}:
            raise ConfigError(f"spin: unknown keys: {sorted(raw.keys() & {'layer_lo', 'layer_hi'})}")
        lo_hi = schema.read(list[int], raw.pop("layer_range", [1, 1]), "spin.layer_range", ConfigError)
        if len(lo_hi) != 2:
            raise ConfigError(f"spin.layer_range: expected [lo, hi], got {lo_hi!r}")
        return schema.read(cls, {**raw, "layer_lo": lo_hi[0], "layer_hi": lo_hi[1]}, "spin", ConfigError)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "r": self.r,
            "alpha": self.alpha,
            "layer_range": [self.layer_lo, self.layer_hi],
            "apply_to": self.apply_to,
        }


def kept_count(r: float, n_heads: int) -> int:
    """K = H - round(r*H) with half rounded up, clamped to [1, H]."""
    suppressed = math.floor(r * n_heads + 0.5)
    return min(n_heads, max(1, n_heads - suppressed))


def _head_ranks(scores: np.ndarray) -> np.ndarray:
    """Rank of each head within its score row (..., H): its place in a
    stable descending sort, i.e. #(s_j > s_i) + #(s_j == s_i, j < i), so
    ties go to the lower head index."""
    return (-scores).argsort(axis=-1, kind="stable").argsort(axis=-1)


class MaskTraceWriter:
    """Streams per-step masks as JSONL: one meta line, then one line per
    (query position, in-range layer), as `json.dumps` would write it. Each
    policy call's lines go out in one write."""

    def __init__(self, fh: IO[str], n_layers: int, n_heads: int, config: SpinConfig):
        self._fh = fh
        meta = {"n_layers": n_layers, "n_heads": n_heads, "spin": config.to_dict()}
        fh.write(json.dumps({"meta": meta}) + "\n")

    def write(self, positions: np.ndarray, first: int, layer: int, masks: np.ndarray) -> None:
        """Trace the mask rows (B*T, H) of one policy call at `positions` (T,),
        stream-major, except each stream's first `first` rows."""
        T = len(positions)
        pos = positions.tolist()
        lines = [
            f'{{"pos": {pos[row % T]}, "layer": {layer}, "mask": [{", ".join(map(repr, mask))}]}}\n'
            for row, mask in enumerate(masks.tolist())
            if row % T >= first
        ]
        self._fh.write("".join(lines))

    def buffer(self) -> MaskTraceWriter:
        """A writer of this trace's lines into memory, for `commit` in corpus order."""
        twin = copy.copy(self)
        twin._fh = io.StringIO()
        return twin

    def commit(self, buffer: MaskTraceWriter) -> None:
        self._fh.write(buffer._fh.getvalue())

    def close(self) -> None:
        self._fh.close()


class SpinPolicy:
    """Mask policy plugged into the engine (the per-layer suppression hook).

    Its masks are a pure function of the step context. Query rows are only
    maskable once the full vision span is behind them (pos >= i_end), which
    also keeps scoring causal during batched prefill; vision positions always
    get all-ones masks.
    """

    def __init__(
        self,
        config: SpinConfig,
        n_layers: int,
        n_heads: int,
        trace: MaskTraceWriter | None = None,
    ):
        config.check_layers(n_layers)
        self.config = config
        self.n_heads = n_heads
        self.trace = trace
        # multiplier by head rank: 1 for the K best ranks, alpha for the rest
        self._levels = np.where(np.arange(n_heads) < kept_count(config.r, n_heads), np.float32(1.0), np.float32(config.alpha))

    def __eq__(self, other) -> bool:  # equal policies make equal masks; they may differ in their trace
        return type(other) is type(self) and (self.config, self.n_heads) == (other.config, other.n_heads)
    __hash__ = lambda self: hash((self.config, self.n_heads))

    def _scores(
        self, q: np.ndarray, keys: np.ndarray, logits: np.ndarray, positions: np.ndarray, layout: PromptLayout
    ) -> np.ndarray:
        """Scores (B*T, H), stream-major, for query rows q (B*T, H, dk) at
        `positions` (T,), read from the layer's keys (B, H, S, dk) and its
        unscaled q.K^T logits (B, H, T, S) of those rows: a head's attention
        score is sum_j q.k_j with no softmax and no 1/sqrt(d_k) scaling.
        Each row only sees its own stream's keys at its own position or
        earlier."""
        cfg = self.config
        if cfg.strategy == "query_norm":
            return np.sqrt(np.sum(np.square(q), axis=-1))
        if cfg.strategy == "image_attention":  # reduced stream-major, (B, T, H); at B or T of 1 the reshape is a view
            scores = np.add.reduce(logits.transpose(0, 2, 1, 3)[..., layout.i_start : layout.i_end], axis=-1)
            return scores.reshape(len(q), -1)
        if cfg.strategy == "total_attention":
            allowed = np.arange(logits.shape[3])[None, :] <= positions[:, None]
            scores = np.where(allowed, logits, np.float32(0.0)).sum(axis=3)
        else:  # key_norm: causal running mean of key L2 norms
            norms = np.sqrt(np.sum(np.square(keys), axis=-1))  # (B, H, S)
            cum = np.cumsum(norms, axis=2) / np.arange(1, norms.shape[2] + 1, dtype=np.float32)
            scores = cum[:, :, positions]
        return scores.transpose(0, 2, 1).reshape(len(q), -1)

    def __call__(
        self,
        layer_index: int,
        q: np.ndarray,
        keys: np.ndarray,
        logits: np.ndarray,
        positions: np.ndarray,
        layout: PromptLayout,
        peers: list[SpinPolicy] | None = None,
    ) -> np.ndarray | None:
        """The hook's masks; `peers`, equal to this one (the first), trace equal parts of the streams in turn."""
        layer = layer_index + 1
        cfg = self.config
        if not cfg.layer_lo <= layer <= cfg.layer_hi:
            return None
        # positions are consecutive, so each stream's maskable rows are a suffix
        T = len(positions)
        floor = max(layout.i_end, layout.prompt_len) if cfg.apply_to == "generated_text_queries_only" else layout.i_end
        first = min(max(floor - int(positions[0]), 0), T)
        if first == T:
            return None
        H = self.n_heads
        rows = q.reshape(-1, T, H, q.shape[-1])[:, first:].reshape(-1, H, q.shape[-1]) if first else q
        scores = self._scores(rows, keys, logits[:, :, first:], positions[first:], layout)
        masks = self._levels[_head_ranks(scores)]
        if first:
            masks = masks.reshape(-1, T - first, H)
            masks = np.concatenate([np.ones((len(masks), first, H), dtype=np.float32), masks], axis=1).reshape(-1, H)
        n = len(masks) // len(peers or [self])
        for i, policy in enumerate(peers or [self]):
            if policy.trace is not None:
                policy.trace.write(positions, first, layer, masks[i * n : (i + 1) * n])
        return masks
