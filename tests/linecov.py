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

    PYTHONPATH=src python tests/linecov.py --commands

With --commands it covers the command runs of commands() and prints, for
each module, the functions and methods of which no line ran: what
tests/test_reachability.py checks against its allowlist.
"""

import argparse
import contextlib
import inspect
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcpnet"


# nested code that belongs to the function around it
COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _lines(code):
    """Line numbers that carry an instruction of the code object itself;
    line 0 (a module's entry instruction) is not a source line."""
    return {line for _, _, line in code.co_lines() if line}


def _nested(code):
    return [c for c in code.co_consts if isinstance(c, type(code))]


def _all_lines(code):
    """Lines of the code object and of all code nested in it."""
    todo, lines = [code], set()
    while todo:
        code = todo.pop()
        lines |= _lines(code)
        todo.extend(_nested(code))
    return lines


def _compile(path):
    return compile(path.read_text(encoding="utf-8"), str(path), "exec")


def executable_lines(path):
    """Line numbers that carry an instruction of some code object of the
    file."""
    return _all_lines(_compile(path))


def functions(path):
    """qualified name -> lines of each function and method of the file.

    A function's lines are those of its code and of all code nested in it,
    less those of the code around it (the def and decorator lines run at
    import): a closure, lambda or comprehension is judged with its
    function, and a class body is no function."""
    out = {}
    todo = [(_compile(path), set())]
    while todo:
        code, outer = todo.pop()
        if (code.co_flags & inspect.CO_OPTIMIZED
                and code.co_name not in COMPREHENSIONS):
            out[code.co_qualname] = _all_lines(code) - outer
        else:
            todo.extend((c, _lines(code)) for c in _nested(code))
    return out


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


def unrun_functions(hits):
    """Sorted `module.qualname` of every function and method in PACKAGE
    none of whose lines ran."""
    return sorted(f"{path.stem}.{name}"
                  for path in sorted(PACKAGE.glob("*.py"))
                  for name, lines in functions(path).items()
                  if not lines & hits.get(path, set()))


def function_report(hits):
    unrun = unrun_functions(hits)
    for path in sorted(PACKAGE.glob("*.py")):
        total = len(functions(path))
        missed = [n for n in unrun if n.split(".")[0] == path.stem]
        name = path.relative_to(PACKAGE.parent)
        text = f"{name}: {total - len(missed)} of {total} functions run"
        print(text + (f"; never run: {', '.join(missed)}" if missed else ""))


def commands(workdir):
    """(name, argv) of the command runs whose reach the reachability test
    checks: every golden invocation, the portable uniform sweep and escape
    run, `solve-a --alpha` and `train` on a CSV file it writes into
    workdir, each writing into its own directory there.

    It imports gcpnet through test_golden, so a tracer started before the
    call sees the package's import-time code run."""
    import test_golden

    rows = workdir / "rows.csv"
    rows.write_text("x,y\n" + "".join(f"{i},{i * i % 7}\n" for i in range(40)),
                    encoding="utf-8")
    runs = dict(test_golden.INVOCATIONS)
    runs.update((name, test_golden.PORTABLE[name])
                for name in ("sweep-uniform", "escape"))
    runs["solve-a-alpha"] = ["solve-a", "--alpha", "0.3"]
    runs["train-csv"] = ["train", str(rows), "--epochs", "1"]
    return [(name, argv + ["--out", str(workdir / name)])
            for name, argv in runs.items()]


def _run(runs):
    """Each (name, argv) through gcpnet.cli.main; returns the worst exit."""
    from gcpnet import cli

    worst = 0
    for name, argv in runs:
        # the report owns stdout; the runs' own output goes to stderr
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        print(f"{name}: exit {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


def trace_commands():
    """(worst exit, hits) of the runs of commands(), made in a temporary
    directory and traced from before gcpnet is imported, so that its
    import-time calls count.  The third-party modules the runs load are
    imported first: tracing their import would only cost time."""
    if "gcpnet" in sys.modules:
        raise RuntimeError("gcpnet is already imported: its import-time "
                           "calls cannot be traced")
    import pytest  # noqa: F401 -- test_golden's
    import scipy.special  # noqa: F401 -- the trainer's

    with LineTracer() as tracer, tempfile.TemporaryDirectory() as tmp:
        code = _run(commands(pathlib.Path(tmp)))
    return code, tracer.hits


def run_workload(name):
    """One seed-1 pass of a benchmark workload; returns the worst exit."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[name](1, False)
    with tempfile.TemporaryDirectory() as tmp:
        workload.prepare(pathlib.Path(tmp) / "input")
        return _run(workload.steps(pathlib.Path(tmp) / "pass"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", default=None,
                        help="trace one seed-1 pass of this benchmark "
                        "workload instead of pytest")
    parser.add_argument("--commands", action="store_true",
                        help="trace the reachability test's command runs "
                        "and report the functions that never ran")
    args, rest = parser.parse_known_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))
    if args.commands:
        code, hits = trace_commands()
        function_report(hits)
        return code
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
