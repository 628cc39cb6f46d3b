"""Every line of src/gcpnet fits in PEP 8's 79 columns, and every name a
module imports is used in it."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gcpnet"


def test_no_source_line_is_longer_than_79_columns():
    long = [f"{path.name}:{number}"
            for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []


def unused_imports(source):
    """(line, name) of each imported name that the module never reads.  An
    import whose lines carry `# noqa: F401` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_unused_import_check_sees_what_it_should():
    source = ("import os, sys\n"
              "from . import net  # noqa: F401 -- side effect\n"
              "from .special import (NumericError,\n"
              "                      TrainingDiverged)\n"
              "import numpy as np\n"
              "def f():\n"
              "    import json\n"
              "    raise NumericError(sys.argv, np.pi)\n")
    assert unused_imports(source) == [(1, "os"), (3, "TrainingDiverged"),
                                      (7, "json")]


def test_no_module_imports_a_name_it_does_not_use():
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line, name in unused_imports(
                  path.read_text(encoding="utf-8"))]
    assert unused == []
