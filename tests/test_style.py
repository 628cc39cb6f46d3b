"""Every line of src/gcpnet fits in PEP 8's 79 columns."""

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gcpnet"


def test_no_source_line_is_longer_than_79_columns():
    long = [f"{path.name}:{number}"
            for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []
