"""Golden report shapes: each fresh CLI report matches its file in golden/.

Key order, strings, ints, bools, nulls and list lengths must match exactly;
floats agree within 1e-12, so a different BLAS still passes. The
contextuality documents hold no floats and are compared byte for byte.
To regenerate a file after an intended report change, run the command shown
in its case with ``--format json`` and write the output over the file.
"""
import json
import math
from pathlib import Path

import pytest

from cyclectx.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

CASES = [
    ("demo5.json", ["demo5"], 0),
    ("verify_all_n10_seed1.json", ["verify-all", "--n-max", "10", "--seed", "1"], 0),
    ("search_n4.json", ["search", "--n", "4"], 0),
    ("search_n8.json", ["search", "--n", "8"], 0),
    ("search_n5_d2.json", ["search", "--n", "5", "--dim", "2"], 1),
    ("contextuality_n9_odd.json", ["contextuality", "--n", "9", "--kind", "odd"], 0),
    ("contextuality_n64_even.json", ["contextuality", "--n", "64", "--kind", "even"], 0),
]


def assert_same_shape(fresh, golden, path="$"):
    assert type(fresh) is type(golden), f"{path}: {type(fresh).__name__} != {type(golden).__name__}"
    if isinstance(golden, dict):
        assert list(fresh) == list(golden), f"{path}: keys {list(fresh)} != {list(golden)}"
        for key in golden:
            assert_same_shape(fresh[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(fresh) == len(golden), f"{path}: length {len(fresh)} != {len(golden)}"
        for i, (a, b) in enumerate(zip(fresh, golden)):
            assert_same_shape(a, b, f"{path}[{i}]")
    elif isinstance(golden, float):
        assert math.isclose(fresh, golden, rel_tol=0.0, abs_tol=FLOAT_TOL), f"{path}: {fresh!r} != {golden!r}"
    else:
        assert fresh == golden, f"{path}: {fresh!r} != {golden!r}"


def holds_float(doc):
    if isinstance(doc, float):
        return True
    if isinstance(doc, dict):
        return any(holds_float(v) for v in doc.values())
    if isinstance(doc, list):
        return any(holds_float(v) for v in doc)
    return False


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0].removesuffix(".json") for c in CASES])
def test_report_matches_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert main(argv + ["--format", "json", "--out", str(out)]) == code
    fresh_text = out.read_text()
    golden_text = (GOLDEN / name).read_text()
    if name.startswith("contextuality"):
        assert fresh_text == golden_text
    assert_same_shape(json.loads(fresh_text), json.loads(golden_text))


@pytest.mark.parametrize("name", [c[0] for c in CASES if c[0].startswith("contextuality")])
def test_contextuality_goldens_hold_no_floats(name):
    assert not holds_float(json.loads((GOLDEN / name).read_text()))


def test_comparison_rejects_a_changed_shape():
    doc = {"a": 1, "b": [0.5, True, None], "c": "x"}
    assert_same_shape(json.loads(json.dumps(doc)), doc)
    for bad in (
        {"b": [0.5, True, None], "a": 1, "c": "x"},      # key order
        {"a": 1.0, "b": [0.5, True, None], "c": "x"},    # int became float
        {"a": True, "b": [0.5, True, None], "c": "x"},   # int became bool
        {"a": 1, "b": [0.5, True], "c": "x"},            # list length
        {"a": 1, "b": [0.5 + 1e-9, True, None], "c": "x"},
        {"a": 1, "b": [0.5, True, 0], "c": "x"},         # null became int
        {"a": 1, "b": [0.5, True, None], "c": "y"},
    ):
        with pytest.raises(AssertionError):
            assert_same_shape(bad, doc)
    assert_same_shape({"a": 1, "b": [0.5 + 1e-13, True, None], "c": "x"}, doc)
