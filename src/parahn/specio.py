"""Parsing and serialization for the JSON bundle-spec document.

One document describes a parabolic bundle (field, splitting type, marked
points, weights, flags) plus optional payload blocks consumed by individual
commands: a dominance datum, a Quot datum, a filtration datum, an explicit
graded filtration, a flag family, or a second bundle shape for Hom.

Field elements travel as decimal strings over prime fields and as low-to-high
coefficient arrays over proper extensions; polynomial coefficients use the
bare integer codes; rationals are always reduced "a/b" strings.

This module checks the JSON shape only: types (an integer is never a
boolean), required keys, vector lengths and the "a/b" form of rationals
(rat.rat_parse), raising SchemaError with the path.  Every other input rule
lives once in the engine and is called here through `_at`, which re-raises
its error as ConsistencyError("<path>: <message>"): field_make and
GF.extension (field, extension degree), GF.check_element (element codes in
[0, q); also called by ParabolicBundle and flag_make), SplitBundle (twists),
SplitBundle.check_subbundle_rank (the quot rank; also called by
enumerate_subbundles and hn.check_quot_datum), flag_make and
check_flag_shape (flags; FlagFamily calls the latter), check_weights (also
called by ParabolicBundle and theta.is_admissible), ParabolicBundle
(distinct points, one weight vector and flag each), make_subbundle, and
hn.check_quot_datum / hn.check_fil_datum (also called by quot_points /
fil_points).  parse_datum is the one parser of dominance data, for the datum
block and --datum alike.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial

from .errors import ConsistencyError, ParahnError, ParseError, SchemaError
from .gf import GF, field_make
from .hn import FlagFamily, HNFiltration, check_fil_datum, check_quot_datum
from .parabolic import (
    Flag,
    ParabolicBundle,
    QuotDatum,
    check_flag_shape,
    check_weights,
    flag_make,
)
from .poly import pnorm
from .rat import rat_parse, rat_str
from .sheaves import SplitBundle, Subbundle, make_subbundle

@dataclass(frozen=True)
class BundleSpec:
    bundle: ParabolicBundle
    datum: tuple | None = None
    quot: dict | None = None  # rank, degree, jumps (optional), min_col_twist
    fil: tuple | None = None  # QuotDatum sequence
    theta: tuple | None = None  # ((weight, Subbundle), ...)
    family: FlagFamily | None = None
    family_points: tuple | None = None
    hom: ParabolicBundle | None = None


# -- shape checks ----------------------------------------------------------------

_REQUIRED = object()


def _at(path: str, fn, *args):
    """fn(*args), with an engine error re-raised as a ConsistencyError at path."""
    try:
        return fn(*args)
    except ParahnError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc


def _expect(doc, key, kind, path, default=_REQUIRED):
    """doc[key] of JSON type kind, where doc is the object at path ("" for the
    root); a missing key gives default, or a SchemaError when required."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path or 'document root'}: expected an object")
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"{where}: missing required field")
        return default
    val = doc[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"{where}: wrong type, expected {kind.__name__}")
    return val


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _ints(vals, path: str) -> tuple:
    if not isinstance(vals, list) or not all(_is_int(v) for v in vals):
        raise SchemaError(f"{path}: expected a list of integers")
    return tuple(vals)


# -- element level -------------------------------------------------------------


def parse_elem(F: GF, raw, path: str) -> int:
    """A field element in one of the schema's forms: a string of decimal
    digits, an integer (never a boolean), or an array of integers."""
    if _is_int(raw):
        val = raw
    elif isinstance(raw, str) and re.fullmatch("[0-9]+", raw):
        val = int(raw)
    elif isinstance(raw, list) and all(_is_int(c) for c in raw):
        if len(raw) > F.k:
            raise SchemaError(f"{path}: coefficient array longer than degree {F.k}")
        if any(not (0 <= c < F.p) for c in raw):
            raise ConsistencyError(f"{path}: coefficients must lie in [0, {F.p})")
        return F.encode(raw + [0] * (F.k - len(raw)))
    else:
        raise SchemaError(f"{path}: expected a field element, got {raw!r}")
    _at(path, F.check_element, val)
    return val


def emit_elem(F: GF, a: int):
    if F.k == 1:
        return str(a)
    return list(F.coeffs(a))


def parse_poly(F: GF, raw, path: str):
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a coefficient array")
    return pnorm(tuple(parse_elem(F, c, f"{path}[{i}]") for i, c in enumerate(raw)))


def emit_poly(F: GF, coeffs):
    if F.k == 1:
        return [c for c in coeffs]
    return [list(F.coeffs(c)) for c in coeffs]


def parse_rat(raw, path: str):
    """A rational "a/b" string; anything rat_parse rejects is a SchemaError."""
    try:
        return rat_parse(raw)
    except ParseError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def parse_rat_list(raw, path: str):
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of rationals")
    return tuple(parse_rat(x, f"{path}[{i}]") for i, x in enumerate(raw))


def parse_datum(items, n: int, path: str):
    """A dominance datum: n nonincreasing rationals (the datum block, --datum)."""
    P = parse_rat_list(items, path)
    if len(P) != n:
        raise ConsistencyError(f"{path}: length must equal the rank {n}")
    if any(a < b for a, b in zip(P, P[1:])):
        raise ConsistencyError(f"{path}: entries must be nonincreasing")
    return P


# -- bundle level ----------------------------------------------------------------


def parse_field(doc, path="field") -> GF:
    p = _expect(doc, "p", int, path)
    k = _expect(doc, "k", int, path, 1)
    return _at(path, field_make, p, k)


def _members(raw, n: int, path: str, entry) -> tuple:
    """Flag members at path: lists of length-n rows, each entry parsed by
    entry(raw, path)."""
    out = []
    for m, rows in enumerate(raw):
        where = f"{path}[{m}]"
        if not isinstance(rows, list):
            raise SchemaError(f"{where}: expected a list of rows")
        member = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"{where}[{i}]: expected a length-{n} vector")
            member.append(
                tuple(entry(c, f"{where}[{i}][{j}]") for j, c in enumerate(row))
            )
        out.append(tuple(member))
    return tuple(out)


def parse_flag(F: GF, n: int, doc, path: str) -> Flag:
    jumps = _ints(_expect(doc, "jumps", list, path), f"{path}.jumps")
    members = _members(
        _expect(doc, "subspaces", list, path), n, f"{path}.subspaces",
        partial(parse_elem, F),
    )
    return _at(path, flag_make, F, n, jumps, members)


def _split_bundle(F: GF, doc, path: str) -> SplitBundle:
    where = f"{path}.splitting_type" if path else "splitting_type"
    twists = _ints(_expect(doc, "splitting_type", list, path), where)
    if not twists:
        raise SchemaError(f"{where}: expected a nonempty list of integers")
    return _at(where, SplitBundle, F, twists)


def parse_bundle(doc) -> ParabolicBundle:
    F = parse_field(_expect(doc, "field", dict, ""))
    E = _split_bundle(F, doc, "")
    points = tuple(
        parse_elem(F, x, f"points[{i}]")
        for i, x in enumerate(_expect(doc, "points", list, "", []))
    )
    weights = tuple(
        parse_rat_list(lam, f"weights[{i}]")
        for i, lam in enumerate(_expect(doc, "weights", list, "", []))
    )
    flags = tuple(
        parse_flag(F, E.rank, fl, f"flags[{i}]")
        for i, fl in enumerate(_expect(doc, "flags", list, "", []))
    )
    for i, (fl, lam) in enumerate(zip(flags, weights)):
        _at(f"weights[{i}]", check_weights, fl.jumps, lam)
    return _at("points", ParabolicBundle, E, points, flags, weights)


def parse_subbundle(E: SplitBundle, doc, path: str) -> Subbundle:
    twists = _ints(_expect(doc, "col_twists", list, path), f"{path}.col_twists")
    mat = []
    for j, row in enumerate(_expect(doc, "matrix", list, path)):
        if not isinstance(row, list) or len(row) != len(twists):
            raise SchemaError(f"{path}.matrix[{j}]: expected {len(twists)} entries")
        mat.append(
            tuple(
                parse_poly(E.field, e, f"{path}.matrix[{j}][{k}]")
                for k, e in enumerate(row)
            )
        )
    return _at(path, make_subbundle, E, twists, tuple(mat))


def parse_quot_datum(V: ParabolicBundle, doc, path: str, jumps_required=True):
    rank = _expect(doc, "rank", int, path)
    degree = _expect(doc, "degree", int, path)
    raw = _expect(doc, "jumps", list, path, _REQUIRED if jumps_required else None)
    if raw is None:
        _at(path, V.bundle.check_subbundle_rank, rank)
        return rank, degree, None
    jumps = tuple(_ints(vec, f"{path}.jumps[{i}]") for i, vec in enumerate(raw))
    _at(path, check_quot_datum, V, QuotDatum(rank, degree, jumps))
    return rank, degree, jumps


def parse_family(base: ParabolicBundle, doc, path="family"):
    F = base.field
    n = base.rank
    ext = _expect(doc, "extension_degree", int, path, 1)
    big, _ = _at(f"{path}.extension_degree", F.extension, ext)
    raw_flags = _expect(doc, "flags", list, path)
    if len(raw_flags) != len(base.points):
        raise ConsistencyError(f"{path}.flags: expected one flag per marked point")
    jumps_all = []
    polys_all = []
    for i, fl in enumerate(raw_flags):
        where = f"{path}.flags[{i}]"
        jumps = _ints(_expect(fl, "jumps", list, where), f"{where}.jumps")
        members = _members(
            _expect(fl, "subspaces", list, where), n, f"{where}.subspaces",
            partial(parse_poly, F),
        )
        _at(where, check_flag_shape, n, jumps, members)
        jumps_all.append(jumps)
        polys_all.append(members)
    fam = FlagFamily(
        bundle=base.bundle,
        points=base.points,
        jumps=tuple(jumps_all),
        subspace_polys=tuple(polys_all),
        weights=base.weights,
        extension_degree=ext,
    )
    raw = _expect(doc, "evaluate_at", list, path, None)
    eval_pts = None
    if raw is not None:
        eval_pts = tuple(
            parse_elem(big, x, f"{path}.evaluate_at[{i}]") for i, x in enumerate(raw)
        )
    return fam, eval_pts


def parse_spec(text: str) -> BundleSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    V = parse_bundle(doc)
    datum = None
    if "datum" in doc:
        datum = parse_datum(_expect(doc, "datum", list, ""), V.rank, "datum")
    quot = None
    if "quot" in doc:
        rank, degree, jumps = parse_quot_datum(
            V, doc["quot"], "quot", jumps_required=False
        )
        mct = _expect(doc["quot"], "min_col_twist", int, "quot", None)
        quot = {"rank": rank, "degree": degree, "jumps": jumps, "min_col_twist": mct}
    fil = None
    if "fil" in doc:
        fil = tuple(
            QuotDatum(*parse_quot_datum(V, item, f"fil[{i}]"))
            for i, item in enumerate(_expect(doc, "fil", list, ""))
        )
        _at("fil", check_fil_datum, V, fil)
    theta = None
    if "theta" in doc:
        steps = []
        for i, item in enumerate(_expect(doc, "theta", list, "")):
            where = f"theta[{i}]"
            w = _expect(item, "weight", int, where)
            W = parse_subbundle(
                V.bundle, _expect(item, "subbundle", dict, where), f"{where}.subbundle"
            )
            steps.append((w, W))
        theta = tuple(steps)
    family = family_points = None
    if "family" in doc:
        family, family_points = parse_family(V, doc["family"])
    hom = None
    if "hom" in doc:
        hdoc = doc["hom"]
        E = _split_bundle(V.field, hdoc, "hom")
        flags = tuple(
            parse_flag(V.field, E.rank, fl, f"hom.flags[{i}]")
            for i, fl in enumerate(_expect(hdoc, "flags", list, "hom"))
        )
        hom = _at("hom", ParabolicBundle, E, V.points, flags, V.weights)
    return BundleSpec(
        bundle=V,
        datum=datum,
        quot=quot,
        fil=fil,
        theta=theta,
        family=family,
        family_points=family_points,
        hom=hom,
    )


# -- emitters ---------------------------------------------------------------------


def emit_subbundle(W: Subbundle):
    F = W.bundle.field
    return {
        "col_twists": list(W.col_twists),
        "degree": W.degree,
        "rank": W.rank,
        "matrix": [[emit_poly(F, e) for e in row] for row in W.mat],
    }


def emit_quot_datum(theta: QuotDatum):
    return {
        "rank": theta.rank,
        "degree": theta.degree,
        "jumps": [list(j) for j in theta.jumps],
    }


def emit_datum(P):
    return [rat_str(x) for x in P]


def emit_filtration(filt: HNFiltration):
    return [
        {
            "subbundle": emit_subbundle(W),
            "quot_datum": emit_quot_datum(theta),
            "relative_slope": rat_str(slope),
        }
        for W, theta, slope in zip(filt.steps, filt.step_data, filt.slopes)
    ]

