"""Runs one workload in a fresh process and prints its result as JSON on the
last line of stdout. `run.py` starts it; it is not meant to be run by hand.

Usage: python3 perfbench/worker.py <spec.json>

Phases: set-up (repeated, and sampled again through the timed loop; the
mean of the fastest quarter is reported), warm-up, the timed loop, then
with tracing a traced set-up and a second timed loop under `tracing.Tracer`,
and last the deferred output checks.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, PromptStream, Unit, digest

SETUP_REPEATS = 3  # set-ups before the warm-up
SETUP_EVERY_S = 2.0  # then one more between units at most this often
# The CPUs this process may use. Units take turns on them: on a shared host
# one core at a time slows by a third for seconds to minutes, while the other
# runs at full speed, so a run that used one core could spend all its time
# in such a phase.
CPUS = sorted(os.sched_getaffinity(0))


def use_cpu(i: int) -> None:
    """Pins the calling thread to the i-th CPU, round robin. It is the only
    thread that works: BLAS is pinned to one thread, which is the caller's."""
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def fastest_quarter(times) -> float:
    """Mean of the fastest quarter of `times`, at least one of them.

    Every unit of a kind does the same work, and other tenants of the machine
    can only add time to it, so the fast units are the estimate of what the
    code costs. A quarter of them, not the single fastest, so that one lucky
    unit does not set the figure, and not the median, which a slow phase of
    the machine over half the run would move.
    """
    ordered = sorted(times)
    return statistics.fmean(ordered[: max(1, len(ordered) // 4)])


def rates(samples: list[tuple[str, float, int, int]], stat=fastest_quarter) -> tuple[float, float]:
    """(records/s, tokens/s) from per-unit (kind, seconds, records, tokens).

    A record's time is `stat` over units of seconds per record, taken per kind
    of unit and averaged over kinds, so the workload's mix is weighted as it
    is sent.
    """
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for kind, dt, records, tokens in samples:
        if records:
            by_kind.setdefault(kind, []).append((dt / records, tokens / records))
    if not by_kind:
        return 0.0, 0.0
    rec_s = statistics.fmean(stat(t for t, _ in v) for v in by_kind.values())
    tok_per_rec = statistics.fmean(statistics.fmean(k for _, k in v) for v in by_kind.values())
    return 1.0 / rec_s, tok_per_rec / rec_s


class Loop:
    """A closed loop of units over one prompt stream."""

    def __init__(self, workload, stream, errors: list[str]):
        self.workload = workload
        self.stream = stream
        self.errors = errors
        self.next_index = 0
        self.attempted = 0
        self.failed_units: dict[int, int] = {}  # unit index -> its records

    @property
    def failed(self) -> int:
        return sum(self.failed_units.values())

    def fail(self, i: int, unit: Unit, problems: list[str]) -> None:
        """A unit's failed records: each problem names one record, or the
        unit when it has a single record."""
        self.failed_units[i] = max(self.failed_units.get(i, 0), min(unit.records, len(problems)))
        self.errors.extend(problems)

    def run(self, seconds: float, min_units: int, keep: int = 0, tracer: Tracer | None = None,
            setup_times: list[float] | None = None):
        """Runs units until `seconds` have passed and at least `min_units` were tried.

        With `setup_times`, a timed set-up runs between units every
        SETUP_EVERY_S and its time is appended there, so set-up is sampled in
        every phase of the machine's load, as units are. Returns (samples,
        kept, trace_bytes): per-unit timings, the first `keep` (index,
        prepared, unit) triples and the mask-trace bytes the units wrote.
        """
        wl = self.workload
        samples, kept = [], []
        trace_bytes = 0
        clock = time.perf_counter
        start = last_setup = clock()
        first = self.next_index
        while self.next_index - first < min_units or clock() - start < seconds:
            if setup_times is not None and clock() - last_setup >= SETUP_EVERY_S:
                setup_times.append(timed_setup(wl))
                last_setup = clock()
            i = self.next_index
            self.next_index += 1
            use_cpu(i)
            prepared = wl.prepare(i, self.stream)
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            try:
                unit = wl.run(i, prepared)
            except Exception as e:  # a failing unit is counted, and the loop goes on
                unit = Unit("error", getattr(wl, "n_records", 1), error=f"{type(e).__name__}: {e}")
                traceback.print_exc(file=sys.stderr)
            dt = clock() - t0
            if tracer is not None:
                tracer.request = -1
            self.attempted += unit.records
            if unit.error:
                self.failed_units[i] = unit.records
                self.errors.append(f"unit {i}: {unit.error}")
            else:
                trace_bytes += wl.collect(unit)
                problems = wl.check(i, prepared, unit)
                if problems:
                    self.fail(i, unit, problems)
                else:
                    samples.append((unit.kind, dt, unit.records, unit.tokens))
            if len(kept) < keep:
                kept.append((i, prepared, unit))
            else:
                unit.report = None
        return samples, kept, trace_bytes


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]](spec["inputs"])
    seconds = float(spec["seconds"])
    errors: list[str] = []
    out: dict = {}

    setup_times = [timed_setup(wl) for _ in range(SETUP_REPEATS)]
    warm = Loop(wl, PromptStream(spec["inputs"].get("warmup_seed", 0)), errors)
    warm.run(0.0, wl.warmup_units)

    # With tracing, half the time runs untraced (the overhead baseline) and
    # half traced, so a traced run costs what an untraced one does.
    if spec["trace"]:
        seconds /= 2
    loop = Loop(wl, PromptStream(spec["inputs"].get("prompt_seed", 0)), errors)
    samples, kept, _ = loop.run(seconds, wl.digest_units, keep=wl.digest_units, setup_times=setup_times)
    out["setup_s"] = fastest_quarter(setup_times)
    out["setup_samples"] = len(setup_times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["records_per_s"], out["tok_per_s"] = rates(samples)
    out["median_records_per_s"], out["median_tok_per_s"] = rates(samples, statistics.median)
    out["units"] = len(samples)
    out["unit_seconds"] = [round(dt, 4) for _, dt, _, _ in samples]

    trace_failed = 0
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                timed_setup(wl)
            t_samples, _, trace_bytes = loop.run(seconds, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        records = sum(s[2] for s in t_samples)
        tokens = sum(s[3] for s in t_samples)
        busy = sum(s[1] for s in t_samples)
        per_layer, notes = tracer.summary(busy, records, tokens, trace_bytes)
        kept_fraction = per_layer["spin.policy.kept_fraction"]
        if per_layer["spin.policy.rows"] and kept_fraction != wl.kept_fraction:
            errors.append(f"SPIN kept {kept_fraction} of heads on masked rows, want {wl.kept_fraction}")
            trace_failed = records
        _, traced_tok_per_s = rates(t_samples)
        per_layer["trace.overhead_share"] = 1.0 - traced_tok_per_s / out["tok_per_s"] if out["tok_per_s"] else 0.0
        notes["traced_tok_per_s"] = traced_tok_per_s
        out["per_layer"] = per_layer
        out["trace_notes"] = notes
        tracer.dump(spec["spans_path"])

    for i, prepared, unit in kept:
        if not unit.error:
            problems = wl.verify(i, prepared, unit)
            if problems:
                loop.fail(i, unit, problems)
    out["digest"] = digest([unit.ids for _, _, unit in kept])
    out["digest_units"] = len(kept)
    out["attempted"] = warm.attempted + loop.attempted
    out["failed"] = warm.failed + loop.failed + trace_failed
    out["errors"] = errors[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
