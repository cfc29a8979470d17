import json
import math

import pytest

from cyclectx import jsonio


class TestDumps:
    def test_nonfinite_floats_are_null(self):
        doc = {"a": math.inf, "b": [1.5, -math.inf, math.nan], "c": 0.1}
        out = jsonio.dumps(doc)
        assert json.loads(out) == {"a": None, "b": [1.5, None, None], "c": 0.1}
        assert "inf" not in out and "nan" not in out

    def test_render_float_keeps_nonfinite_text(self):
        # CSV and text output go through render_float and keep the text form
        assert jsonio.render_float(math.inf) == "inf"
        assert jsonio.render_float(math.nan) == "nan"

    def test_keys_and_strings_are_quoted_as_json_dumps_quotes_them(self):
        texts = ["plain", 'say "hi"', "back\\slash", "tab\tnew\nline\x00", "héllo ✓ 𝄞", ""]
        for t in texts:
            assert jsonio.dumps({t: t}) == "{\n  " + json.dumps(t) + ": " + json.dumps(t) + "\n}\n"
            assert jsonio.dumps([t, True, None, False]) == (
                "[" + ", ".join(json.dumps(v) for v in (t, True, None, False)) + "]\n")

    @pytest.mark.parametrize("obj, expected", [
        ({}, "{}\n"),
        ({"a": {}, "b": []}, '{\n  "a": {},\n  "b": []\n}\n'),
        ([object()], TypeError),
    ], ids=["empty-dict", "nested-empty", "not-json"])
    def test_empty_containers_and_foreign_objects(self, obj, expected):
        if expected is TypeError:
            with pytest.raises(TypeError, match="not JSON serializable"):
                jsonio.dumps(obj)
        else:
            assert jsonio.dumps(obj) == expected


class TestFractionText:
    @pytest.mark.parametrize("x, expected", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (0.123456789, "0.123456789"), (1 / 9, "1/9"), (2.0, "2"),
    ], ids=["inf", "minus-inf", "nan", "not-a-fraction", "ninth", "integer"])
    def test_renders_fraction_or_float_text(self, x, expected):
        assert jsonio.as_fraction_text(x) == expected
