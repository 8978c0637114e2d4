"""Command-line surface: one command per process, deterministic JSON reports.

Exit codes: 0 success, 1 domain error, 2 enumeration budget exhausted or a
command-line usage error (argparse's, a PARAHN_BUDGET that is not a
nonnegative integer included), 3 internal error (NonUniqueMaximum or an
AssertionError from the engine; the report is still emitted and names the
error class).  The report payload is byte-stable for identical inputs and
flags; only the timing_ms field varies between runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from . import __version__
from .errors import BudgetExceeded, NonUniqueMaximum, ParahnError, UnknownCommand
from .hn import (
    _min_col_twist,
    enumerate_B,
    enumerate_F,
    family_scan,
    fil_points,
    find_P_destabilizing,
    hn_datum,
    hn_filtration,
    quot_points,
    sigma_candidates,
    strata_member,
)
from .parabolic import QuotDatum, hom_parabolic, parabolic_degree
from .rat import rat_str
from .sheaves import DEFAULT_BUDGET, enumerate_subbundles
from .specio import (
    BundleSpec,
    emit_datum,
    emit_elem,
    emit_filtration,
    emit_poly,
    emit_quot_datum,
    emit_subbundle,
    parse_datum,
    parse_spec,
)
from .theta import is_admissible, theta_filtration, wt_chi, wt_combined, wt_det


def _require(value, name):
    if value is None:
        raise ParahnError(f"this command needs the {name} block (or flag)")
    return value


def _get_datum(spec: BundleSpec, args):
    if args.datum:
        items = [x.strip() for x in args.datum.split(",")]
        return parse_datum(items, spec.bundle.rank, "--datum")
    return _require(spec.datum, "datum")


def _cmd_hn(spec, args):
    filt = hn_filtration(spec.bundle, args.budget)
    return {
        "datum": emit_datum(hn_datum(filt)),
        "semistable": filt.length == 1,
        "parabolic_degree": rat_str(parabolic_degree(spec.bundle)),
        "filtration": emit_filtration(filt),
    }


def _cmd_enum_sub(spec, args):
    q = _require(spec.quot, "quot")
    E = spec.bundle.bundle
    r, d = q["rank"], q["degree"]
    mct = q["min_col_twist"]
    if mct is None:
        mct = _min_col_twist(E, r, d)
    subs = enumerate_subbundles(E, r, d, mct, args.budget)
    return {
        "count": len(subs),
        "min_col_twist": mct,
        "subbundles": [emit_subbundle(W) for W in subs],
    }


def _cmd_strata(spec, args):
    P = _get_datum(spec, args)
    member = strata_member(spec.bundle, P, args.budget)
    witness = None
    if not member and sum(P) == parabolic_degree(spec.bundle):
        W = find_P_destabilizing(spec.bundle, P, args.budget)
        if W is not None:
            witness = emit_subbundle(W)
    filt = hn_filtration(spec.bundle, args.budget)
    return {
        "member": member,
        "hn_datum": emit_datum(hn_datum(filt)),
        "witness": witness,
    }


def _cmd_quot_points(spec, args):
    q = _require(spec.quot, "quot")
    if q["jumps"] is None:
        raise ParahnError("quot.jumps is required for quot-points")
    theta = QuotDatum(q["rank"], q["degree"], q["jumps"])
    pts = quot_points(spec.bundle, theta, args.budget)
    return {"count": len(pts), "points": [emit_subbundle(W) for W in pts]}


def _cmd_fil_points(spec, args):
    alpha = _require(spec.fil, "fil")
    chains = fil_points(spec.bundle, alpha, args.budget)
    return {
        "count": len(chains),
        "chains": [[emit_subbundle(W) for W in ch] for ch in chains],
    }


def _cmd_bounds_F(spec, args):
    P = _get_datum(spec, args)
    data = enumerate_F(P, len(spec.bundle.points))
    return {"count": len(data), "data": [emit_datum(d) for d in data]}


def _cmd_bounds_B(spec, args):
    Q = _get_datum(spec, args)
    data = enumerate_B(Q, spec.bundle.weights)
    return {"count": len(data), "data": [emit_datum(d) for d in data]}


def _cmd_sigma(spec, args):
    P = _get_datum(spec, args)
    chain_lengths = tuple(fl.chain_length for fl in spec.bundle.flags)
    cands = sigma_candidates(P, chain_lengths)
    return {
        "count": len(cands),
        "candidates": [[emit_quot_datum(t) for t in datum] for datum in cands],
    }


def _cmd_theta_weight(spec, args):
    jumps = _require(spec.theta, "theta")
    V = spec.bundle
    filt = theta_filtration(V, jumps)
    chi = []
    for idx, fl in enumerate(V.flags):
        N = fl.chain_length
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if i != j:
                    chi.append(
                        {
                            "point": idx,
                            "i": i,
                            "j": j,
                            "value": wt_chi(V, filt, idx, i, j),
                        }
                    )
    result = {
        "combined": rat_str(wt_combined(V, filt)),
        "chi": chi,
        "det": wt_det(V, filt) if len(V.points) == 1 else None,
    }
    return result


def _cmd_admissible(spec, args):
    V = spec.bundle
    out = []
    all_ok = True
    for idx, (fl, lam) in enumerate(zip(V.flags, V.weights)):
        ok, region = is_admissible(V.rank, fl.jumps, lam)
        all_ok = all_ok and ok
        out.append(
            {
                "point_index": idx,
                "jumps": list(fl.jumps),
                "weights": [rat_str(w) for w in lam],
                "admissible": ok,
                "region": region.to_jsonable(),
            }
        )
    return {"points": out, "all_admissible": all_ok}


def _cmd_family(spec, args):
    fam = _require(spec.family, "family")
    scan = family_scan(fam, spec.family_points, args.budget)
    big, _ = fam.bundle.field.extension(fam.extension_degree)
    return {
        "values": [
            {"u": emit_elem(big, u), "datum": emit_datum(d)} for u, d in scan.values
        ],
        "minimum": emit_datum(scan.minimum) if scan.minimum is not None else None,
        "exceeding": [emit_elem(big, u) for u in scan.exceeding],
    }


def _cmd_hom(spec, args):
    B = _require(spec.hom, "hom")
    dim, basis = hom_parabolic(spec.bundle, B)
    F = spec.bundle.field
    return {
        "dimension": dim,
        "basis": [
            [[emit_poly(F, e) for e in row] for row in mat] for mat in basis
        ],
    }


_DISPATCH = {
    "hn": _cmd_hn,
    "enum-sub": _cmd_enum_sub,
    "strata": _cmd_strata,
    "quot-points": _cmd_quot_points,
    "fil-points": _cmd_fil_points,
    "bounds-F": _cmd_bounds_F,
    "bounds-B": _cmd_bounds_B,
    "sigma": _cmd_sigma,
    "theta-weight": _cmd_theta_weight,
    "admissible": _cmd_admissible,
    "family": _cmd_family,
    "hom": _cmd_hom,
}
COMMANDS = tuple(_DISPATCH)


def _render_md(payload):
    lines = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in obj:
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}- **{key}**:")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}- **{key}**: {val}")
        elif isinstance(obj, list):
            if not obj:
                lines.append(f"{pad}- (empty)")
            for i, val in enumerate(obj):
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}- [{i}]")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}- {val}")
        else:
            lines.append(f"{pad}- {obj}")

    lines.append(f"# parahn report: {payload['command']}")
    walk({k: v for k, v in payload.items() if k != "command"}, 0)
    return "\n".join(lines) + "\n"


def run_command(cmd: str, text: str, args) -> tuple[dict, int]:
    """Dispatch one command on a raw spec document; returns (report, exit code)."""
    started = time.monotonic()
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    flags = {
        "format": args.format,
        "budget": args.budget,
        "extend": args.extend,
        "datum": args.datum,
    }
    report = {
        "command": cmd,
        "engine_version": __version__,
        "input_digest": digest,
        "flags": flags,
    }
    if cmd not in _DISPATCH:
        raise UnknownCommand(f"unknown command {cmd!r}")
    code = 0
    try:
        spec = parse_spec(text)
        if args.extend != 1:
            spec = _extend_spec(spec, args.extend)
        report["result"] = _DISPATCH[cmd](spec, args)
    except BudgetExceeded as exc:
        report["error"] = {
            "type": "BudgetExceeded",
            "message": str(exc),
            "count": exc.count,
            "cap": exc.cap,
        }
        code = 2
    except (AssertionError, NonUniqueMaximum) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 3
    except ParahnError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 1
    report["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    return report, code


def _extend_spec(spec: BundleSpec, m: int) -> BundleSpec:
    return dataclasses.replace(
        spec,
        bundle=spec.bundle.extend_scalars(m),
        theta=None if spec.theta is None
        else tuple((w, W.extend_scalars(m)) for w, W in spec.theta),
        hom=None if spec.hom is None else spec.hom.extend_scalars(m),
    )


def _budget(text: str) -> int:
    """The type of --budget: a nonnegative integer.  argparse also applies
    it to a string default, so a PARAHN_BUDGET that is not one is a usage
    error too, unless --budget is given."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a nonnegative integer (from --budget, or from "
            "PARAHN_BUDGET when --budget is not given)"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parahn",
        description="Exact slope-stability calculator for parabolic bundles "
        "on the projective line over small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--input", required=True, help="bundle spec JSON file")
        p.add_argument("--format", choices=("json", "md"), default="json")
        p.add_argument(
            "--budget",
            type=_budget,
            default=os.environ.get("PARAHN_BUDGET", DEFAULT_BUDGET),
            help="enumeration candidate cap (default: PARAHN_BUDGET, else 10^8)",
        )
        p.add_argument(
            "--extend",
            type=int,
            default=1,
            metavar="M",
            help="extend scalars to F_{q^M} before computing",
        )
        p.add_argument("--datum", default=None, help='dominance datum "a/b,a/b,..."')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"parahn: cannot read input: {exc}", file=sys.stderr)
        return 1
    report, code = run_command(args.command, text, args)
    if args.format == "md":
        sys.stdout.write(_render_md(report))
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
