"""The README's worked examples, run as written: the JSON document through
the `hn` command (and its aligned variant), and the Library snippet."""

import contextlib
import io
import json
import re
from pathlib import Path

from test_cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_example():
    return json.loads(re.search(r"```json\n(.*?)```", README, re.S).group(1))


def test_json_example_is_semistable(tmp_path):
    report, code = run(tmp_path, "hn", readme_example())
    assert code == 0
    assert report["result"]["datum"] == ["1/1", "1/1"]
    assert report["result"]["semistable"] is True


def test_aligned_variant_is_destabilized_by_the_constant_line(tmp_path):
    doc = readme_example()
    doc["flags"][1]["subspaces"] = [[["1", "0"]]]
    report, code = run(tmp_path, "hn", doc)
    assert code == 0
    assert report["result"]["datum"] == ["3/2", "1/2"]
    step = report["result"]["filtration"][0]["subbundle"]
    assert step == {"col_twists": [0], "degree": 0, "rank": 1, "matrix": [[[1]], [[]]]}


def test_library_snippet_prints_its_comment():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    claimed = re.search(r"print\(.*\)\s+# (.*)", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().strip() == claimed == "(Fraction(3, 4), Fraction(1, 4))"
