"""Which lines of src/spin_infer never run under tier-1 (criterion 6 excluded).

    PYTHONPATH=src python tests/line_coverage.py [extra pytest args]

Runs pytest over tests/ with `-k "not criterion_06"` under `sys.settrace` and
`threading.settrace`, limited to frames from src/spin_infer, then prints each
executable line (from the compiled modules' `co_lines()`) that never ran as
`file:line: source`, and the totals. Python subprocesses started by the tests
are traced too: each one gets a `sitecustomize` on its PYTHONPATH that installs
the same tracer and writes its hits to a file. Exits 1 when a line never ran
or a test failed. Not collected by pytest.
"""

import atexit
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "spin_infer")


def install(hits: set) -> None:
    """Add each (file, line) run in a src/spin_infer frame to `hits`, in this thread and threads started later."""
    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    tracer = lambda frame, event, arg: line if frame.f_code.co_filename.startswith(SRC) else None
    sys.settrace(tracer)
    threading.settrace(tracer)


def install_in_subprocess(hook: str) -> None:
    hits: set = set()
    install(hits)

    @atexit.register
    def write_hits():
        with open(os.path.join(hook, f"{os.getpid()}.tsv"), "a") as fh:
            fh.writelines(f"{f}\t{n}\n" for f, n in hits)


def executable_lines(code) -> set:
    consts = [c for c in code.co_consts if isinstance(c, type(code))]
    return {n for _, _, n in code.co_lines() if n}.union(*map(executable_lines, consts))  # a module starts at line 0


def main() -> int:
    import pytest

    hits: set = set()
    with tempfile.TemporaryDirectory(prefix="line_coverage_") as hook:
        Path(hook, "sitecustomize.py").write_text(
            f"import sys\nsys.path.insert(0, {TESTS!r})\nimport line_coverage\nsys.path.pop(0)\n"
            f"line_coverage.install_in_subprocess({hook!r})\n")
        popen_init = subprocess.Popen.__init__

        def traced_popen_init(self, args, *rest, env=None, **kw):  # tests set the child's PYTHONPATH themselves
            env = dict(os.environ if env is None else env)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [hook, env.get("PYTHONPATH")]))
            popen_init(self, args, *rest, env=env, **kw)

        subprocess.Popen.__init__ = traced_popen_init
        install(hits)
        try:
            code = pytest.main([TESTS, "-q", "-k", "not criterion_06", *sys.argv[1:]])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            subprocess.Popen.__init__ = popen_init
        for part in Path(hook).glob("*.tsv"):
            hits |= {(f, int(n)) for f, n in (row.split("\t") for row in part.read_text().splitlines())}
    total = missed = 0
    for path in sorted(Path(SRC).glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        never = sorted(n for n in lines if (str(path), n) not in hits)
        total, missed = total + len(lines), missed + len(never)
        for n in never:
            print(f"{path.relative_to(Path(SRC).parents[1])}:{n}: {source.splitlines()[n - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/spin_infer never ran (pytest exit code {code})")
    return int(code != 0 or missed != 0)


if __name__ == "__main__":
    sys.exit(main())
