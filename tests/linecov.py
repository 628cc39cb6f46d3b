"""Line coverage of src/gcpnet with the standard library only.

Runs pytest under sys.settrace, limited to the package's own files, then
prints for each module how many of its executable lines ran and which
never did.  A line is executable when some code object compiled from the
file has an instruction on it (`code.co_lines()`).

    PYTHONPATH=src python tests/linecov.py [PYTEST_ARGS ...]
    PYTHONPATH=src python tests/linecov.py --workload dynamics-branch

With --workload NAME the trace covers one seed-1 pass of that benchmark
workload from perfbench/workloads.py instead: its input files and steps,
each run through gcpnet.cli.main in a temporary directory.
"""

import argparse
import contextlib
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcpnet"


def executable_lines(path):
    """Line numbers that carry an instruction of some code object of the
    file; line 0 (a module's entry instruction) is not a source line."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class LineTracer:
    """Records (file, line) for every call into and line run in PACKAGE."""

    def __init__(self):
        self.hits = {}      # resolved path -> set of line numbers
        self._owner = {}    # co_filename -> its path in PACKAGE, or None

    def _lines_of(self, filename):
        if filename not in self._owner:
            path = pathlib.Path(os.path.realpath(filename))
            self._owner[filename] = (path if path.parent == PACKAGE
                                     else None)
        path = self._owner[filename]
        return None if path is None else self.hits.setdefault(path, set())

    def __call__(self, frame, event, arg):
        # the global hook sees every call; only package frames get a local
        # hook, so line events elsewhere cost nothing
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _ranges(numbers):
    out, run = [], []
    for n in sorted(numbers):
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def report(hits):
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - hits.get(path, set())
        name = path.relative_to(PACKAGE.parent)
        text = f"{name}: {len(lines) - len(missed)} of {len(lines)} lines run"
        print(text + (f"; never run: {_ranges(missed)}" if missed else ""))


def run_workload(name):
    """One seed-1 pass of a benchmark workload; returns the worst exit."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from gcpnet import cli

    workload = workloads.WORKLOADS[name](1, False)
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        workload.prepare(pathlib.Path(tmp) / "input")
        for step, argv in workload.steps(pathlib.Path(tmp) / "pass"):
            # the report owns stdout; the steps' own output goes to stderr
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            print(f"{step}: exit {code}", file=sys.stderr)
            worst = max(worst, code)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", default=None,
                        help="trace one seed-1 pass of this benchmark "
                        "workload instead of pytest")
    args, rest = parser.parse_known_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))
    with LineTracer() as tracer:
        if args.workload is not None:
            code = run_workload(args.workload)
        else:
            import pytest
            code = int(pytest.main(rest))
    report(tracer.hits)
    return code


if __name__ == "__main__":
    sys.exit(main())
