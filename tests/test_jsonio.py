import json
import math

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
