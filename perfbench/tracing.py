"""Span tracing installed from outside the package.

`Tracer.install()` wraps the public functions listed in HOOKS so that every
call records a span (name, start, end, parent span, request id) plus the
counts measured at that boundary. Spans stay in memory; `Tracer.summary`
turns them into the per-layer metrics and `Tracer.dump` writes them out.

A function bound under the same name in several modules (``from .x import
y``) is replaced in every loaded module that holds it, so the span is
recorded whichever module makes the call. A hook point that no longer
exists is reported in `missing` and its metrics read zero; it does not fail
the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time

import numpy as np

# (span name, module, attribute path)
HOOKS = (
    ("cli.main", "spin_infer.cli", "main"),
    ("config.load_run_config", "spin_infer.config", "load_run_config"),
    ("model.load_checkpoint", "spin_infer.model", "load_checkpoint"),
    ("corpus.load_corpus", "spin_infer.corpus", "load_corpus"),
    ("corpus.token_table", "spin_infer.corpus", "TokenTable.load"),
    ("metrics.vocab", "spin_infer.metrics", "ObjectVocabulary.from_tsv"),
    ("engine.init", "spin_infer.engine", "Engine.__init__"),
    ("engine.new_cache", "spin_infer.engine", "Engine.new_cache"),
    ("engine.prefill", "spin_infer.engine", "Engine.prefill"),
    ("engine.step", "spin_infer.engine", "Engine.step"),
    ("engine.kv_fork", "spin_infer.engine", "KvCache.fork"),
    ("spin.policy", "spin_infer.spin", "SpinPolicy.__call__"),
    ("spin.trace", "spin_infer.spin", "MaskTraceWriter.write"),
    ("decoding.generate", "spin_infer.decoding", "generate"),
    ("runner.run_eval", "spin_infer.runner", "run_eval"),
    ("runner.report_json", "spin_infer.runner", "write_report_json"),
    ("runner.report_csv", "spin_infer.runner", "write_report_csv"),
    ("metrics.chair_scores", "spin_infer.metrics", "chair_scores"),
    ("metrics.pope_eval", "spin_infer.metrics", "pope_eval"),
)

# Set-up calls outside requests, reported as the median seconds per call.
SETUP_SPANS = {
    "model.load_checkpoint.s": "model.load_checkpoint",
    "corpus.load_corpus.s": "corpus.load_corpus",
    "corpus.token_table.s": "corpus.token_table",
    "config.load_run_config.s": "config.load_run_config",
    "engine.init.s": "engine.init",
}


def _tail(samples: list[float]) -> tuple[str, float]:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    label, value = "p50", float(np.percentile(samples, 50)) if n else 0.0
    for q in (90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            label, value = f"p{q:g}", float(np.percentile(samples, q))
    return label, value


def _common_prefix(a: list[int], b: list[int]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _repeat_rows(prompt, earlier: list) -> int:
    """Leading rows of `prompt` equal to the leading rows of an earlier
    prompt with the same vision span."""
    best = 0
    for other in earlier:
        same_vision = other.vision is prompt.vision or (
            other.vision.shape == prompt.vision.shape and np.array_equal(other.vision, prompt.vision)
        )
        if other.prefix_ids == prompt.prefix_ids and same_vision:
            rows = len(prompt.prefix_ids) + prompt.vision.shape[0]
            rows += _common_prefix(prompt.suffix_ids, other.suffix_ids)
        else:
            rows = _common_prefix(prompt.prefix_ids, other.prefix_ids)
        best = max(best, rows)
    return best


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.extra: dict[int, object] = {}
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # cache fill: id(cache) -> index into self._fills while the cache lives
        self._live_caches: dict[int, int] = {}
        self._fills: list[list[int]] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t1: float) -> None:
        self.t1[idx] = t1
        self._stack.pop()

    def _track_cache(self, cache) -> None:
        self._live_caches[id(cache)] = len(self._fills)
        self._fills.append([cache.length, cache.max_len])

    def _update_cache(self, cache) -> None:
        i = self._live_caches.get(id(cache))
        if i is not None:
            self._fills[i][0] = cache.length

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        if name == "engine.prefill":
            def wrapper(engine, prompt, cache, *a, **kw):
                idx = tracer._open(name)
                before = cache.length
                tracer.t0[idx] = clock()
                try:
                    return fn(engine, prompt, cache, *a, **kw)
                finally:
                    tracer._close(idx, clock())
                    tracer.extra[idx] = (prompt, cache.length - before)
                    tracer._update_cache(cache)
        elif name == "engine.step":
            def wrapper(engine, token, cache, *a, **kw):
                idx = tracer._open(name)
                tracer.t0[idx] = clock()
                try:
                    return fn(engine, token, cache, *a, **kw)
                finally:
                    tracer._close(idx, clock())
                    tracer._update_cache(cache)
        elif name in ("engine.new_cache", "engine.kv_fork"):
            def wrapper(*a, **kw):
                idx = tracer._open(name)
                tracer.t0[idx] = clock()
                try:
                    cache = fn(*a, **kw)
                finally:
                    tracer._close(idx, clock())
                tracer.extra[idx] = cache.k.nbytes + cache.v.nbytes
                tracer._track_cache(cache)
                return cache
        elif name == "spin.policy":
            def wrapper(*a, **kw):
                idx = tracer._open(name)
                tracer.t0[idx] = clock()
                masks = None
                try:
                    masks = fn(*a, **kw)
                    return masks
                finally:
                    tracer._close(idx, clock())
                    tracer.extra[idx] = masks
        else:
            def wrapper(*a, **kw):
                idx = tracer._open(name)
                tracer.t0[idx] = clock()
                try:
                    return fn(*a, **kw)
                finally:
                    tracer._close(idx, clock())
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, modname, path in HOOKS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patch(owner, attr, patched)
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            patched = self._wrap(name, original)
            for other in list(sys.modules.values()):
                if getattr(other, "__dict__", {}).get(attr) is original:
                    self._patch(other, attr, patched)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # --- reporting -------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps([i, name, self.parent[i], self.req[i], self.t0[i], self.t1[i]]) + "\n")

    def summary(self, wall_s: float, n_records: int, n_tokens: int, trace_bytes: int) -> tuple[dict, dict]:
        """Per-layer metrics over the spans of requests (req >= 0).

        Counts and self times are per record; `wall_s` is the traced wall time
        of the request loop that the self times must account for, and
        `n_tokens` the tokens the requests generated. Returns (metrics, notes).
        """
        n = len(self.name)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_t = [dur[i] - child[i] for i in range(n)]

        per = max(n_records, 1)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        setup: dict[str, list[float]] = {}
        steps_us: list[float] = []
        prefill_rows = repeat_rows = fork_bytes = 0
        spin_rows = kept_heads = n_heads = 0
        spin_in = {"engine.step": 0.0, "engine.prefill": 0.0}
        history: dict[int, list] = {}
        covered = 0.0
        for i in range(n):
            name = self.name[i]
            if self.req[i] < 0:
                setup.setdefault(name, []).append(dur[i])
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + self_t[i]
            total_s[name] = total_s.get(name, 0.0) + dur[i]
            covered += self_t[i]
            if name == "engine.step":
                steps_us.append(dur[i] * 1e6)
            elif name == "engine.prefill":
                prompt, rows = self.extra[i]
                earlier = history.setdefault(self.req[i], [])
                prefill_rows += rows
                repeat_rows += min(rows, _repeat_rows(prompt, earlier))
                earlier.append(prompt)
            elif name == "engine.kv_fork":
                fork_bytes += self.extra[i]
            elif name == "spin.policy":
                masks = self.extra[i]
                if masks is not None:
                    n_heads = masks.shape[1]
                    suppressed = (masks != 1.0).any(axis=1)
                    spin_rows += int(suppressed.sum())
                    kept_heads += int((masks[suppressed] == 1.0).sum())
                p = self.parent[i]
                if p >= 0 and self.name[p] in spin_in:
                    spin_in[self.name[p]] += self_t[i]
        tail_label, tail = _tail(steps_us)
        m = {
            "engine.prefill.calls": calls.get("engine.prefill", 0) / per,
            "engine.prefill.rows": prefill_rows / per,
            "engine.prefill.self_s": self_s.get("engine.prefill", 0.0) / per,
            "engine.prefill.repeat_share": repeat_rows / prefill_rows if prefill_rows else 0.0,
            "engine.step.calls": calls.get("engine.step", 0) / per,
            "engine.step.self_s": self_s.get("engine.step", 0.0) / per,
            "engine.step.p50_us": float(np.percentile(steps_us, 50)) if steps_us else 0.0,
            "engine.step.tail_us": tail,
            "engine.new_cache.s": total_s.get("engine.new_cache", 0.0) / per,
            "engine.kv_fork.calls": calls.get("engine.kv_fork", 0) / per,
            "engine.kv_fork.s": total_s.get("engine.kv_fork", 0.0) / per,
            "engine.kv_fork.bytes": fork_bytes / per,
            "engine.kv.fill": (
                sum(u for u, _ in self._fills) / sum(r for _, r in self._fills) if self._fills else 0.0
            ),
            "spin.policy.calls": calls.get("spin.policy", 0) / per,
            "spin.policy.rows": spin_rows / per,
            "spin.policy.self_s": self_s.get("spin.policy", 0.0) / per,
            "spin.policy.decode_share": (
                spin_in["engine.step"] / total_s["engine.step"] if total_s.get("engine.step") else 0.0
            ),
            "spin.policy.prefill_share": (
                spin_in["engine.prefill"] / total_s["engine.prefill"] if total_s.get("engine.prefill") else 0.0
            ),
            "spin.policy.kept_fraction": kept_heads / (spin_rows * n_heads) if spin_rows else 0.0,
            "spin.trace.lines": calls.get("spin.trace", 0) / per,
            "spin.trace.s": total_s.get("spin.trace", 0.0) / per,
            "spin.trace.bytes": trace_bytes / per,
            "decoding.requests": calls.get("decoding.generate", 0) / per,
            "decoding.tokens": n_tokens / per,
            "decoding.self_s": self_s.get("decoding.generate", 0.0) / per,
            "decoding.forks_per_token": calls.get("engine.kv_fork", 0) / n_tokens if n_tokens else 0.0,
            "runner.run_eval.self_s": self_s.get("runner.run_eval", 0.0) / per,
            "runner.report_write.s": (
                total_s.get("runner.report_json", 0.0) + total_s.get("runner.report_csv", 0.0)
            ) / per,
            "metrics.chair_scores.s": total_s.get("metrics.chair_scores", 0.0) / per,
            "metrics.pope_eval.s": total_s.get("metrics.pope_eval", 0.0) / per,
            "cli.main.self_s": self_s.get("cli.main", 0.0) / per,
            "trace.coverage": covered / wall_s if wall_s > 0 else 0.0,
            "trace.missing_hooks": float(len(self.missing)),
        }
        for metric, span in SETUP_SPANS.items():
            samples = setup.get(span)
            m[metric] = statistics.median(samples) if samples else 0.0
        notes = {"step_tail_percentile": tail_label, "step_samples": len(steps_us),
                 "missing_hooks": list(self.missing),
                 "spans": n}
        return m, notes
