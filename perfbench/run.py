"""Benchmark of spin-infer: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload decode-long --seed 0 --seconds 20 --trace 0

Builds the workload's inputs from --seed into a scratch directory with the
package's own generators, runs the workload in a fresh child process
(`worker.py`) with BLAS pinned to one thread, and prints a readable summary
followed by one JSON line: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. Metric names, units and
workloads are read from BENCHMARK.json. Any failed output check makes the
result incorrect and the exit code 1.

Everything is read and written inside the checkout: the package comes from
./src, scratch inputs live under ./.perfbench/work and are removed, and span
dumps and determinism digests stay under ./.perfbench/out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads here or in the worker: a second
# thread gave ~7% on decode-long, nothing on pope-eval and no narrower spread
# on a 2-core machine.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0  # the whole command must finish within 180 s


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def source_hash() -> str:
    """Digest of the package and benchmark sources: the key under which a
    run's generation digest is remembered, so it is compared only between
    runs of the same code."""
    h = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


# Per-layer counts that must repeat exactly between traced runs of the same
# sources and seed; they are tripwires, never speed-ups.
EXACT_COUNTS = (
    "engine.step.calls", "engine.prefill.rows", "engine.kv_fork.calls",
    "spin.policy.rows", "spin.trace.lines", "decoding.tokens",
)


def check_repeat(kind: str, workload: str, seed: int, value: str) -> str | None:
    """`value` must equal what an earlier run of the same sources and seed
    recorded under `kind`; the first run records it."""
    path = STATE / "out" / f"{kind}-{workload}-seed{seed}-{source_hash()}.txt"
    if path.exists():
        before = path.read_text().strip()
        if before != value:
            return f"{kind} {value} differs from an earlier run's {before}"
        return None
    path.write_text(value + "\n")
    return None


def main(argv=None) -> int:
    t_start = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be >= 0")

    if not (SRC / "spin_infer" / "__init__.py").is_file():
        return fail(f"package source not found under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import spin_infer

    if Path(spin_infer.__file__).resolve().parent != SRC / "spin_infer":
        return fail(f"imported spin_infer from {spin_infer.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    (STATE / "work").mkdir(parents=True, exist_ok=True)
    (STATE / "out").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "work"))
    try:
        inputs = WORKLOADS[args.workload].build(args.seed, work)
        spec = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs": inputs,
            "spans_path": str(STATE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        timeout = DEADLINE_S - (time.monotonic() - t_start)
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
                env=env, cwd=work, stdout=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return fail(f"worker did not finish within {timeout:.0f} s")
        if proc.returncode != 0 or not proc.stdout.strip():
            return fail(f"worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(result["errors"])
    repeats = [check_repeat("digest", args.workload, args.seed, result["digest"])]
    if args.trace:
        counts = {k: result["per_layer"][k] for k in EXACT_COUNTS}
        repeats.append(check_repeat("counts", args.workload, args.seed, json.dumps(counts, sort_keys=True)))
    failed = result["failed"]
    if any(repeats):
        errors += [r for r in repeats if r]
        failed = max(failed, 1)
    attempted = max(result["attempted"], 1)
    correct = not errors and failed == 0

    env_info = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(f"generation digest {result['digest']} over the first {result['digest_units']} timed units")
    print(f"units timed {result['units']}, set-ups timed {result['setup_samples']}, "
          f"records attempted {attempted}, failed {failed}")
    print(f"unit_seconds {json.dumps(result['unit_seconds'])}")
    print(f"from the median unit: records_per_s {result['median_records_per_s']:.6g}, "
          f"tok_per_s {result['median_tok_per_s']:.6g}")
    print(f"failed_share {failed / attempted:.4f} ratio")
    for err in errors:
        print(f"check failed: {err}")

    if args.trace:
        metrics_spec, values = bench["per_layer"], result["per_layer"]
        notes = result["trace_notes"]
        print("trace " + json.dumps(notes, sort_keys=True))
        print("engine.kv_fork.bytes is computed from the k/v array sizes, not measured")
        if abs(values["trace.coverage"] - 1.0) > 0.1:
            print(f"flag: self times cover {values['trace.coverage']:.3f} of the traced time")
        for name in notes["missing_hooks"]:
            print(f"flag: hook point {name} no longer exists; its metrics read 0")
        print(f"tracing overhead: tok_per_s {result['tok_per_s']:.1f} untraced vs "
              f"{notes['traced_tok_per_s']:.1f} traced")
    else:
        metrics_spec, values = bench["end_to_end"], result
        missing = [m["name"] for m in metrics_spec if m["name"] not in values]
        if missing:
            return fail(f"worker reported no {', '.join(missing)}")
    metrics = {}
    for m in metrics_spec:
        value = float(values.get(m["name"], 0.0))  # a per-layer hook that is gone reads 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32s} {value:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
