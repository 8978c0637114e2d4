import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parahn import cli
from parahn.cli import build_parser, main, run_command
from parahn.errors import ConsistencyError, NonUniqueMaximum, ParseError, SchemaError
from parahn.specio import parse_spec

R2_DOC = {
    "field": {"p": 3, "k": 1},
    "splitting_type": [0, 0],
    "points": ["0", "1"],
    "weights": [["1/4", "3/4"], ["1/4", "3/4"]],
    "flags": [
        {"jumps": [1, 1], "subspaces": [[["1", "0"]]]},
        {"jumps": [1, 1], "subspaces": [[["1", "1"]]]},
    ],
}

R1_DOC = {
    "field": {"p": 3, "k": 1},
    "splitting_type": [0, 0],
    "points": ["0"],
    "weights": [["1/4", "3/4"]],
    "flags": [{"jumps": [1, 1], "subspaces": [[["1", "0"]]]}],
}


def run(tmp_path, cmd, doc, *extra):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    args = build_parser().parse_args([cmd, "--input", str(path), *extra])
    with open(path) as fh:
        text = fh.read()
    return run_command(cmd, text, args)


# -- parsing -----------------------------------------------------------------


def test_parse_published_example():
    spec = parse_spec(json.dumps(R2_DOC))
    assert spec.bundle.rank == 2
    assert len(spec.bundle.points) == 2


def test_parse_rejects_decreasing_weights():
    doc = dict(R1_DOC, weights=[["3/4", "1/4"]])
    with pytest.raises(ConsistencyError) as exc:
        parse_spec(json.dumps(doc))
    assert "weights" in str(exc.value)


def test_parse_rejects_duplicate_points():
    doc = dict(R2_DOC, points=["0", "0"])
    with pytest.raises(ConsistencyError) as exc:
        parse_spec(json.dumps(doc))
    assert "points" in str(exc.value)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_spec("{not json")


def test_parse_rejects_missing_field_block():
    with pytest.raises(SchemaError) as exc:
        parse_spec(json.dumps({"splitting_type": [0]}))
    assert "field" in str(exc.value)


# -- input rules ---------------------------------------------------------------

FAMILY_OK = {"jumps": [1, 1], "subspaces": [[[[1], []]]]}
THETA_OK = {"weight": 1, "subbundle": {"col_twists": [0], "matrix": [[[1]], [[]]]}}
FIL_OK = {"rank": 1, "degree": 0, "jumps": [[1, 0]]}

# (command, document, extra flags, JSON path the message must name); one row
# per input rule, each reported as a ConsistencyError.
RULES = {
    "field-p-prime": ("hn", dict(R1_DOC, field={"p": 4}), (), "field"),
    "field-k-positive": ("hn", dict(R1_DOC, field={"p": 3, "k": 0}), (), "field"),
    "twists-nonincreasing": ("hn", dict(R1_DOC, splitting_type=[0, 1]), (), "splitting_type"),
    "element-in-field": ("hn", dict(R1_DOC, points=["5"]), (), "points[0]"),
    "points-distinct": ("hn", dict(R2_DOC, points=["0", "0"]), (), "points"),
    "lists-aligned": ("hn", dict(R2_DOC, weights=[["1/4", "3/4"]]), (), "points"),
    "weights-in-range": ("hn", dict(R1_DOC, weights=[["1/4", "5/4"]]), (), "weights[0]"),
    "weights-increase": ("hn", dict(R1_DOC, weights=[["3/4", "1/4"]]), (), "weights[0]"),
    "weights-chain-length": ("hn", dict(R1_DOC, weights=[["1/4", "1/2", "3/4"]]), (), "weights[0]"),
    "flag-jumps-sum": (
        "hn",
        dict(R1_DOC, flags=[{"jumps": [2, 1], "subspaces": [[["1", "0"], ["0", "1"]]]}]),
        (),
        "flags[0]",
    ),
    "flag-member-dimension": (
        "hn",
        dict(R1_DOC, flags=[{"jumps": [1, 1], "subspaces": [[["0", "0"]]]}]),
        (),
        "flags[0]",
    ),
    "flag-nesting": (
        "hn",
        dict(
            R1_DOC,
            splitting_type=[0, 0, 0],
            weights=[["1/4", "1/2", "3/4"]],
            flags=[{"jumps": [1, 1, 1], "subspaces": [[["1", "0", "0"]], [["0", "1", "0"], ["0", "0", "1"]]]}],
        ),
        (),
        "flags[0]",
    ),
    "quot-rank-range": (
        "quot-points", dict(R1_DOC, quot={"rank": 3, "degree": 0, "jumps": [[2, 1]]}), (), "quot"
    ),
    "quot-rank-range-no-jumps": (
        "enum-sub", dict(R1_DOC, quot={"rank": 3, "degree": 0}), (), "quot"
    ),
    "quot-jumps-per-point": (
        "quot-points", dict(R1_DOC, quot={"rank": 1, "degree": 0, "jumps": []}), (), "quot"
    ),
    "quot-jumps-length": (
        "quot-points", dict(R1_DOC, quot={"rank": 1, "degree": 0, "jumps": [[1]]}), (), "quot"
    ),
    "quot-jumps-nonnegative": (
        "quot-points", dict(R1_DOC, quot={"rank": 1, "degree": 0, "jumps": [[2, -1]]}), (), "quot"
    ),
    "quot-jumps-sum": (
        "quot-points", dict(R1_DOC, quot={"rank": 1, "degree": 0, "jumps": [[1, 1]]}), (), "quot"
    ),
    "fil-item-jumps": (
        "fil-points", dict(R1_DOC, fil=[{"rank": 1, "degree": 0, "jumps": [[1, 1]]}]), (), "fil[0]"
    ),
    "fil-ranks-increase": ("fil-points", dict(R1_DOC, fil=[FIL_OK, FIL_OK]), (), "fil"),
    "fil-ranks-below-rank": (
        "fil-points", dict(R1_DOC, fil=[{"rank": 2, "degree": 0, "jumps": [[1, 1]]}]), (), "fil"
    ),
    "datum-length": ("strata", dict(R1_DOC, datum=["1/2"]), (), "datum"),
    "datum-order": ("strata", dict(R1_DOC, datum=["1/4", "3/4"]), (), "datum"),
    "datum-flag-length": ("strata", R1_DOC, ("--datum", "1/2"), "--datum"),
    "datum-flag-order": ("strata", R1_DOC, ("--datum", "1/4,3/4"), "--datum"),
    "family-extension-degree": (
        "family", dict(R1_DOC, family={"extension_degree": 0, "flags": [FAMILY_OK]}), (),
        "family.extension_degree",
    ),
    "family-flag-per-point": (
        "family", dict(R1_DOC, family={"flags": [FAMILY_OK, FAMILY_OK]}), (), "family.flags"
    ),
    "family-jumps-sum": (
        "family",
        dict(R1_DOC, family={"flags": [{"jumps": [2, 1], "subspaces": [[[[1], []]]]}]}),
        (),
        "family.flags[0]",
    ),
    "family-member-count": (
        "family",
        dict(R1_DOC, family={"flags": [{"jumps": [1, 1], "subspaces": [[[[1], []]], [[[1], []]]]}]}),
        (),
        "family.flags[0]",
    ),
    "hom-twists-nonincreasing": (
        "hom", dict(R1_DOC, hom={"splitting_type": [0, 1], "flags": R1_DOC["flags"]}), (), "hom"
    ),
    "hom-flag-per-point": ("hom", dict(R1_DOC, hom={"splitting_type": [0, 0], "flags": []}), (), "hom"),
    "theta-subbundle": (
        "theta-weight",
        dict(R1_DOC, theta=[{"weight": 1, "subbundle": {"col_twists": [1], "matrix": [[[1]], [[]]]}}]),
        (),
        "theta[0].subbundle",
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_input_rule_reports_its_path(tmp_path, rule):
    cmd, doc, extra, path = RULES[rule]
    report, code = run(tmp_path, cmd, doc, *extra)
    assert code == 1
    assert report["error"]["type"] == "ConsistencyError"
    assert path in report["error"]["message"]


# Documents whose JSON shape is wrong, as (command, document, JSON path): each
# is a SchemaError naming its path.
MALFORMED = {
    "flags": ("hn", dict(R1_DOC, flags=[5]), "flags[0]"),
    "hom.flags": ("hom", dict(R1_DOC, hom={"splitting_type": [0, 0], "flags": [5]}), "hom.flags[0]"),
    "family.flags": ("family", dict(R1_DOC, family={"flags": [5]}), "family.flags[0]"),
    "family.subspaces": (
        "family",
        dict(R1_DOC, family={"flags": [{"jumps": [1, 1], "subspaces": [5]}]}),
        "family.flags[0].subspaces[0]",
    ),
    "theta.col_twists": (
        "theta-weight",
        dict(R1_DOC, theta=[dict(THETA_OK, subbundle={"col_twists": ["a"], "matrix": [[[1]], [[]]]})]),
        "theta[0].subbundle.col_twists",
    ),
}

# JSON booleans where the schema asks for integers.
BOOLEAN_INTS = {
    "bool:quot.rank": ("enum-sub", dict(R1_DOC, quot={"rank": True, "degree": 0}), "quot.rank"),
    "bool:splitting_type": ("hn", dict(R1_DOC, splitting_type=[True, 0]), "splitting_type"),
    "bool:flags.jumps": (
        "hn",
        dict(R1_DOC, flags=[{"jumps": [True, True], "subspaces": [[["1", "0"]]]}]),
        "flags[0].jumps",
    ),
    "bool:theta.weight": ("theta-weight", dict(R1_DOC, theta=[dict(THETA_OK, weight=True)]), "theta[0].weight"),
    "bool:theta.col_twists": (
        "theta-weight",
        dict(R1_DOC, theta=[dict(THETA_OK, subbundle={"col_twists": [False], "matrix": [[[1]], [[]]]})]),
        "theta[0].subbundle.col_twists",
    ),
}

# Rationals other than "a/b" strings.
RATIONALS = {
    "rat:datum-boolean": ("strata", dict(R1_DOC, datum=["1/1", True]), "datum[1]"),
    "rat:weights-integer": ("hn", dict(R1_DOC, weights=[[1, "3/4"]]), "weights[0][0]"),
    "rat:weights-text": ("hn", dict(R1_DOC, weights=[[True, "x"]]), "weights[0][0]"),
    "rat:weights-malformed": ("hn", dict(R1_DOC, weights=[["1/4", "3/x"]]), "weights[0][1]"),
}

# Field elements in none of the schema's forms (a string of decimal digits, an
# integer, an array of integers).
F9_DOC = dict(R1_DOC, field={"p": 3, "k": 2})
F11_DOC = dict(R1_DOC, field={"p": 11, "k": 1})
ELEMENTS = {
    "elem:float-coefficient": ("hn", dict(F9_DOC, points=[[1.5, 1]]), "points[0]"),
    "elem:boolean-coefficient": ("hn", dict(F9_DOC, points=[[True, 1]]), "points[0]"),
    "elem:string-coefficient": ("hn", dict(F9_DOC, points=[["1", 2]]), "points[0]"),
    "elem:underscore": ("hn", dict(F11_DOC, points=["1_0"]), "points[0]"),
    "elem:space": ("hn", dict(F11_DOC, points=[" 2"]), "points[0]"),
    "elem:sign": ("hn", dict(F11_DOC, points=["+1"]), "points[0]"),
}

SHAPE_ERRORS = {**MALFORMED, **BOOLEAN_INTS, **RATIONALS, **ELEMENTS}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_malformed_shape_is_a_schema_error(tmp_path, case):
    cmd, doc, path = SHAPE_ERRORS[case]
    report, code = run(tmp_path, cmd, doc)
    assert code == 1
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(path + ":")


# -- commands ----------------------------------------------------------------


def test_hn_command_on_aligned_fixture(tmp_path):
    report, code = run(tmp_path, "hn", R1_DOC)
    assert code == 0
    assert report["result"]["datum"] == ["3/4", "1/4"]
    assert report["result"]["semistable"] is False
    steps = report["result"]["filtration"]
    assert len(steps) == 2
    assert steps[0]["subbundle"]["col_twists"] == [0]


def test_hn_command_generic_semistable(tmp_path):
    report, code = run(tmp_path, "hn", R2_DOC)
    assert code == 0
    assert report["result"]["datum"] == ["1/1", "1/1"]
    assert report["result"]["semistable"] is True


def test_admissible_command_rejecting_weights(tmp_path):
    doc = dict(R1_DOC, weights=[["1/10", "9/10"]])
    report, code = run(tmp_path, "admissible", doc)
    assert code == 0
    point = report["result"]["points"][0]
    assert point["admissible"] is False
    assert report["result"]["all_admissible"] is False
    assert point["region"]
    rels = {(c["rel"], c["rhs"]) for c in point["region"]}
    assert rels == {(">=", "1/4"), ("<=", "3/4")}


def test_enum_sub_budget_exhaustion_exit_code(tmp_path):
    doc = dict(R1_DOC, quot={"rank": 1, "degree": -2})
    report, code = run(tmp_path, "enum-sub", doc, "--budget", "10")
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert report["error"]["count"] > 10


def test_enum_sub_counts_lines(tmp_path):
    doc = dict(R1_DOC, quot={"rank": 1, "degree": 0})
    report, code = run(tmp_path, "enum-sub", doc)
    assert code == 0
    assert report["result"]["count"] == 4


def test_strata_command_with_datum_flag(tmp_path):
    report, code = run(tmp_path, "strata", R1_DOC, "--datum", "1/2,1/2")
    assert code == 0
    assert report["result"]["member"] is False
    assert report["result"]["witness"]["col_twists"] == [0]
    report2, code2 = run(tmp_path, "strata", R1_DOC, "--datum", "3/4,1/4")
    assert code2 == 0
    assert report2["result"]["member"] is True
    assert report2["result"]["witness"] is None


def test_quot_points_command(tmp_path):
    doc = dict(R1_DOC, quot={"rank": 1, "degree": 0, "jumps": [[0, 1]]})
    report, code = run(tmp_path, "quot-points", doc)
    assert code == 0
    assert report["result"]["count"] == 3


def test_fil_points_command(tmp_path):
    doc = dict(R1_DOC, fil=[{"rank": 1, "degree": 0, "jumps": [[1, 0]]}])
    report, code = run(tmp_path, "fil-points", doc)
    assert code == 0
    assert report["result"]["count"] == 1


def test_bounds_commands(tmp_path):
    rep_f, code_f = run(tmp_path, "bounds-F", R1_DOC, "--datum", "3/4,1/4")
    assert code_f == 0 and rep_f["result"]["count"] > 0
    rep_b, code_b = run(tmp_path, "bounds-B", R1_DOC, "--datum", "3/4,1/4")
    assert code_b == 0
    assert ["3/4", "1/4"] in rep_b["result"]["data"]
    assert ["1/2", "1/2"] in rep_b["result"]["data"]


def test_sigma_command(tmp_path):
    report, code = run(tmp_path, "sigma", R1_DOC, "--datum", "3/4,1/4")
    assert code == 0
    assert report["result"]["count"] == 2


def test_theta_weight_command(tmp_path):
    doc = dict(
        R1_DOC,
        theta=[
            {
                "weight": 1,
                "subbundle": {"col_twists": [0], "matrix": [[[1]], [[]]]},
            }
        ],
    )
    report, code = run(tmp_path, "theta-weight", doc)
    assert code == 0
    assert report["result"]["combined"] == "1/1"
    assert report["result"]["det"] == 0


def test_family_command(tmp_path):
    doc = dict(
        R2_DOC,
        family={
            "extension_degree": 1,
            "flags": [
                {"jumps": [1, 1], "subspaces": [[[[1], []]]]},
                {"jumps": [1, 1], "subspaces": [[[[1], [0, 1]]]]},
            ],
        },
    )
    report, code = run(tmp_path, "family", doc)
    assert code == 0
    values = {v["u"]: v["datum"] for v in report["result"]["values"]}
    assert values["0"] == ["3/2", "1/2"]
    assert values["1"] == ["1/1", "1/1"]
    assert report["result"]["minimum"] == ["1/1", "1/1"]
    assert report["result"]["exceeding"] == ["0"]


def test_hom_command(tmp_path):
    doc = dict(
        R1_DOC,
        hom={
            "splitting_type": [0, 0],
            "flags": [{"jumps": [1, 1], "subspaces": [[["1", "0"]]]}],
        },
    )
    report, code = run(tmp_path, "hom", doc)
    assert code == 0
    assert report["result"]["dimension"] == 3


def test_extend_flag_preserves_datum(tmp_path):
    base, _ = run(tmp_path, "hn", R1_DOC)
    ext, code = run(tmp_path, "hn", R1_DOC, "--extend", "2")
    assert code == 0
    assert ext["result"]["datum"] == base["result"]["datum"]


def test_extend_flag_carries_theta_and_hom(tmp_path):
    # --extend also extends the theta subbundles and the hom target bundle
    doc = dict(R1_DOC, theta=[THETA_OK])
    base, _ = run(tmp_path, "theta-weight", doc)
    ext, code = run(tmp_path, "theta-weight", doc, "--extend", "2")
    assert code == 0
    assert ext["result"] == base["result"]
    assert ext["result"]["combined"] == "1/1"
    for splitting_type, dim in (([0, 0], 3), ([1, 0], 5)):
        doc = dict(R1_DOC, hom=dict(splitting_type=splitting_type, flags=R1_DOC["flags"]))
        for extra in ((), ("--extend", "2")):
            report, code = run(tmp_path, "hom", doc, *extra)
            assert code == 0
            assert report["result"]["dimension"] == dim


def test_domain_error_exit_code(tmp_path):
    # strata without any datum: domain error, exit 1
    report, code = run(tmp_path, "strata", R1_DOC)
    assert code == 1
    assert "error" in report


def test_report_determinism_excluding_timing(tmp_path):
    r1, _ = run(tmp_path, "hn", R1_DOC)
    r2, _ = run(tmp_path, "hn", R1_DOC)
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_reparses_as_json(tmp_path):
    report, _ = run(tmp_path, "hn", R2_DOC)
    blob = json.dumps(report, indent=2, sort_keys=True)
    again = json.loads(blob)
    assert again["result"]["datum"] == report["result"]["datum"]
    for key in ("command", "engine_version", "input_digest", "result", "timing_ms"):
        assert key in again


def test_main_end_to_end(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(R1_DOC))
    code = main(["hn", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["result"]["datum"] == ["3/4", "1/4"]
    code_md = main(["hn", "--input", str(path), "--format", "md"])
    out_md = capsys.readouterr().out
    assert code_md == 0
    assert out_md.startswith("# parahn report: hn")
    assert "3/4" in out_md


def test_main_missing_input(tmp_path, capsys):
    code = main(["hn", "--input", str(tmp_path / "absent.json")])
    assert code == 1


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "command" in capsys.readouterr().err


def test_run_command_rejects_unknown_command(tmp_path):
    from parahn.errors import UnknownCommand

    args = build_parser().parse_args(["hn", "--input", "x"])
    with pytest.raises(UnknownCommand):
        run_command("not-a-command", json.dumps(R1_DOC), args)


def test_family_command_refuses_degenerate_points(tmp_path):
    doc = dict(
        R1_DOC,
        family={
            "flags": [
                {"jumps": [1, 1], "subspaces": [[[[0, 1], []]]]},
            ],
        },
    )
    report, code = run(tmp_path, "family", doc)
    assert code == 1
    assert report["error"]["type"] == "DegenerateFlagAt"
    assert "0" in report["error"]["message"]


def test_budget_env_var_sets_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAHN_BUDGET", "17")
    args = build_parser().parse_args(["hn", "--input", "x"])
    assert args.budget == 17


def test_malformed_budget_env_var_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(R1_DOC))
    monkeypatch.setenv("PARAHN_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["hn", "--input", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "PARAHN_BUDGET" in err and "'abc'" in err
    # an explicit --budget wins over the environment
    assert main(["hn", "--input", str(path), "--budget", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["flags"]["budget"] == 1000


@pytest.mark.parametrize("argv,env", [(["--budget", "-1"], None), ([], "-5")],
                         ids=["flag", "env"])
def test_negative_budget_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, env):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(R1_DOC))
    if env is not None:
        monkeypatch.setenv("PARAHN_BUDGET", env)
    for cmd in ("hn", "bounds-F"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--input", str(path), *argv])
        assert exc.value.code == 2
        assert repr(env or argv[1]) in capsys.readouterr().err
    assert build_parser().parse_args(["hn", "--input", "x", "--budget", "0"]).budget == 0


# one rank-3 document over F_3 with two marked points, for enum-sub at rank 2,
# fil-points (504 chains) and bounds-B
HASH_SEED_DOC = {
    "field": {"p": 3, "k": 1},
    "splitting_type": [1, 0, -1],
    "points": ["0", "1"],
    "weights": [["1/4", "1/2", "3/4"], ["1/4", "1/2", "3/4"]],
    "flags": [
        {"jumps": [1, 1, 1], "subspaces": [[["1", "1", "0"]], [["1", "1", "0"], ["0", "1", "1"]]]},
        {"jumps": [1, 1, 1], "subspaces": [[["0", "1", "2"]], [["0", "1", "2"], ["1", "0", "1"]]]},
    ],
    "quot": {"rank": 2, "degree": -1},
    "fil": [
        {"rank": 1, "degree": -1, "jumps": [[0, 0, 1], [0, 0, 1]]},
        {"rank": 2, "degree": -1, "jumps": [[0, 1, 1], [0, 1, 1]]},
    ],
    "datum": ["1/1", "0/1", "-1/1"],
}


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # byte-equal reports, apart from timing_ms, under two string hash seeds
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(HASH_SEED_DOC))
    src = str(Path(cli.__file__).resolve().parent.parent)

    def stdout(cmd, seed):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        env.pop("PARAHN_BUDGET", None)
        proc = subprocess.run([sys.executable, "-m", "parahn.cli", cmd, "--input", str(path)],
                              env=env, capture_output=True, text=True, check=True)
        return [line for line in proc.stdout.splitlines() if '"timing_ms"' not in line]

    for cmd in ("hn", "enum-sub", "fil-points", "bounds-B"):
        assert stdout(cmd, 1) == stdout(cmd, 2), cmd


@pytest.mark.parametrize("exc", [AssertionError("broken invariant"), NonUniqueMaximum("two maxima")])
def test_internal_error_exit_code(tmp_path, monkeypatch, exc):
    def broken(spec, args):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "hn", broken)
    report, code = run(tmp_path, "hn", R2_DOC)
    assert code == 3
    assert report["error"] == {"type": type(exc).__name__, "message": str(exc)}
    assert "timing_ms" in report
