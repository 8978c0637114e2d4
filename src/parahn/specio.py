"""Parsing and serialization for the JSON bundle-spec document.

One document describes a parabolic bundle (field, splitting type, marked
points, weights, flags) plus optional payload blocks consumed by individual
commands: a dominance datum, a Quot datum, a filtration datum, an explicit
graded filtration, a flag family, or a second bundle shape for Hom.

Field elements travel as decimal strings over prime fields and as low-to-high
coefficient arrays over proper extensions; polynomial coefficients use the
bare integer codes; rationals are always reduced "a/b" strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConsistencyError, ParahnError, ParseError, SchemaError
from .gf import GF, field_make, is_prime
from .hn import FlagFamily, HNFiltration
from .parabolic import Flag, ParabolicBundle, QuotDatum, flag_make
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


# -- element level -------------------------------------------------------------


def parse_elem(F: GF, raw, path: str) -> int:
    if isinstance(raw, bool):
        raise SchemaError(f"{path}: expected a field element, got a boolean")
    if isinstance(raw, int):
        val = raw
    elif isinstance(raw, str):
        try:
            val = int(raw, 10)
        except ValueError as exc:
            raise SchemaError(f"{path}: bad field element {raw!r}") from exc
    elif isinstance(raw, list):
        if len(raw) > F.k:
            raise SchemaError(f"{path}: coefficient array longer than degree {F.k}")
        try:
            coeffs = [int(c) for c in raw]
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: bad coefficient array") from exc
        if any(not (0 <= c < F.p) for c in coeffs):
            raise ConsistencyError(f"{path}: coefficients must lie in [0, {F.p})")
        return F.encode(coeffs + [0] * (F.k - len(coeffs)))
    else:
        raise SchemaError(f"{path}: expected a field element")
    if not (0 <= val < F.q):
        raise ConsistencyError(f"{path}: element {val} outside [0, {F.q})")
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


def parse_rat_list(raw, path: str):
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of rationals")
    return tuple(rat_parse(x) for x in raw)


# -- bundle level ----------------------------------------------------------------


def _expect(doc, key, kind, path):
    if key not in doc:
        raise SchemaError(f"{path}{key}: missing required field")
    val = doc[key]
    if not isinstance(val, kind):
        raise SchemaError(f"{path}{key}: wrong type, expected {kind.__name__}")
    return val


def parse_field(doc, path="field") -> GF:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object with p and k")
    p = _expect(doc, "p", int, f"{path}.")
    k = doc.get("k", 1)
    if not isinstance(k, int):
        raise SchemaError(f"{path}.k: expected an integer")
    if not is_prime(p):
        raise ConsistencyError(f"{path}.p: {p} is not prime")
    if k < 1:
        raise ConsistencyError(f"{path}.k: must be >= 1")
    return field_make(p, k)


def parse_flag(F: GF, n: int, doc, path: str) -> Flag:
    jumps = _expect(doc, "jumps", list, f"{path}.")
    subspaces = _expect(doc, "subspaces", list, f"{path}.")
    rows_parsed = []
    for m, rows in enumerate(subspaces, start=1):
        if not isinstance(rows, list):
            raise SchemaError(f"{path}.subspaces[{m - 1}]: expected a list of rows")
        member = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(
                    f"{path}.subspaces[{m - 1}][{i}]: expected a length-{n} vector"
                )
            member.append(
                tuple(
                    parse_elem(F, c, f"{path}.subspaces[{m - 1}][{i}][{j}]")
                    for j, c in enumerate(row)
                )
            )
        rows_parsed.append(tuple(member))
    try:
        return flag_make(F, n, tuple(jumps), tuple(rows_parsed))
    except ParahnError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc


def parse_bundle(doc) -> ParabolicBundle:
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    F = parse_field(_expect(doc, "field", dict, ""))
    twists = _expect(doc, "splitting_type", list, "")
    if not twists or not all(isinstance(a, int) for a in twists):
        raise SchemaError("splitting_type: expected a nonempty list of integers")
    if any(a < b for a, b in zip(twists, twists[1:])):
        raise ConsistencyError("splitting_type: twists must be nonincreasing")
    E = SplitBundle(F, tuple(twists))
    n = E.rank
    raw_points = doc.get("points", [])
    points = tuple(
        parse_elem(F, x, f"points[{i}]") for i, x in enumerate(raw_points)
    )
    if len(set(points)) != len(points):
        raise ConsistencyError("points: marked points must be distinct")
    raw_weights = doc.get("weights", [])
    raw_flags = doc.get("flags", [])
    if not (len(points) == len(raw_weights) == len(raw_flags)):
        raise ConsistencyError(
            "points/weights/flags: the three lists must have equal length"
        )
    weights = []
    for i, lam in enumerate(raw_weights):
        lam = parse_rat_list(lam, f"weights[{i}]")
        if any(not (0 < w < 1) for w in lam):
            raise ConsistencyError(f"weights[{i}]: weights must lie in (0, 1)")
        if any(a >= b for a, b in zip(lam, lam[1:])):
            raise ConsistencyError(f"weights[{i}]: weights must strictly increase")
        weights.append(lam)
    flags = tuple(
        parse_flag(F, n, fl, f"flags[{i}]") for i, fl in enumerate(raw_flags)
    )
    for i, (fl, lam) in enumerate(zip(flags, weights)):
        if fl.chain_length != len(lam):
            raise ConsistencyError(
                f"flags[{i}]: chain length {fl.chain_length} differs "
                f"from weights[{i}] length {len(lam)}"
            )
    try:
        return ParabolicBundle(E, points, flags, tuple(weights))
    except ParahnError as exc:
        raise ConsistencyError(str(exc)) from exc


def parse_subbundle(E: SplitBundle, doc, path: str) -> Subbundle:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    twists = _expect(doc, "col_twists", list, f"{path}.")
    matrix = _expect(doc, "matrix", list, f"{path}.")
    if len(matrix) != E.rank:
        raise ConsistencyError(f"{path}.matrix: expected {E.rank} rows")
    mat = []
    for j, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != len(twists):
            raise SchemaError(f"{path}.matrix[{j}]: expected {len(twists)} entries")
        mat.append(
            tuple(
                parse_poly(E.field, e, f"{path}.matrix[{j}][{k}]")
                for k, e in enumerate(row)
            )
        )
    try:
        return make_subbundle(E, tuple(twists), tuple(mat))
    except ParahnError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc


def parse_quot_datum(V: ParabolicBundle, doc, path: str, jumps_required=True):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    rank = _expect(doc, "rank", int, f"{path}.")
    degree = _expect(doc, "degree", int, f"{path}.")
    raw_jumps = doc.get("jumps")
    if raw_jumps is None:
        if jumps_required:
            raise SchemaError(f"{path}.jumps: missing required field")
        return rank, degree, None
    if not isinstance(raw_jumps, list) or len(raw_jumps) != len(V.points):
        raise ConsistencyError(
            f"{path}.jumps: expected one jump vector per marked point"
        )
    jumps = []
    for i, (vec, fl) in enumerate(zip(raw_jumps, V.flags)):
        if not isinstance(vec, list) or len(vec) != fl.chain_length:
            raise ConsistencyError(
                f"{path}.jumps[{i}]: expected length {fl.chain_length}"
            )
        if any(not isinstance(b, int) or b < 0 for b in vec):
            raise ConsistencyError(f"{path}.jumps[{i}]: entries must be >= 0")
        if sum(vec) != rank:
            raise ConsistencyError(f"{path}.jumps[{i}]: entries must sum to rank")
        jumps.append(tuple(vec))
    return rank, degree, tuple(jumps)


def parse_family(base: ParabolicBundle, doc, path="family"):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    F = base.field
    n = base.rank
    ext = doc.get("extension_degree", 1)
    if not isinstance(ext, int) or ext < 1:
        raise ConsistencyError(f"{path}.extension_degree: must be a positive integer")
    raw_flags = _expect(doc, "flags", list, f"{path}.")
    if len(raw_flags) != len(base.points):
        raise ConsistencyError(f"{path}.flags: expected one flag per marked point")
    jumps_all = []
    polys_all = []
    for i, fl in enumerate(raw_flags):
        jumps = _expect(fl, "jumps", list, f"{path}.flags[{i}].")
        subspaces = _expect(fl, "subspaces", list, f"{path}.flags[{i}].")
        members = []
        for m, rows in enumerate(subspaces):
            member = []
            for r, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != n:
                    raise SchemaError(
                        f"{path}.flags[{i}].subspaces[{m}][{r}]: expected "
                        f"a length-{n} vector of polynomials"
                    )
                member.append(
                    tuple(
                        parse_poly(
                            F, e, f"{path}.flags[{i}].subspaces[{m}][{r}][{j}]"
                        )
                        for j, e in enumerate(row)
                    )
                )
            members.append(tuple(member))
        jumps_all.append(tuple(jumps))
        polys_all.append(tuple(members))
    fam = FlagFamily(
        bundle=base.bundle,
        points=base.points,
        jumps=tuple(jumps_all),
        subspace_polys=tuple(polys_all),
        weights=base.weights,
        extension_degree=ext,
    )
    eval_pts = None
    if "evaluate_at" in doc:
        big, _ = F.extension(ext)
        raw = doc["evaluate_at"]
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.evaluate_at: expected a list")
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
        datum = parse_rat_list(doc["datum"], "datum")
        if len(datum) != V.rank:
            raise ConsistencyError("datum: length must equal the rank")
        if any(a < b for a, b in zip(datum, datum[1:])):
            raise ConsistencyError("datum: entries must be nonincreasing")
    quot = None
    if "quot" in doc:
        rank, degree, jumps = parse_quot_datum(
            V, doc["quot"], "quot", jumps_required=False
        )
        mct = doc["quot"].get("min_col_twist")
        if mct is not None and not isinstance(mct, int):
            raise SchemaError("quot.min_col_twist: expected an integer")
        quot = {"rank": rank, "degree": degree, "jumps": jumps, "min_col_twist": mct}
    fil = None
    if "fil" in doc:
        if not isinstance(doc["fil"], list):
            raise SchemaError("fil: expected a list of Quot data")
        parsed = []
        for i, item in enumerate(doc["fil"]):
            rank, degree, jumps = parse_quot_datum(V, item, f"fil[{i}]")
            parsed.append(QuotDatum(rank, degree, jumps))
        ranks = [t.rank for t in parsed]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise ConsistencyError("fil: ranks must strictly increase")
        fil = tuple(parsed)
    theta = None
    if "theta" in doc:
        if not isinstance(doc["theta"], list):
            raise SchemaError("theta: expected a list of weighted subbundles")
        steps = []
        for i, item in enumerate(doc["theta"]):
            if not isinstance(item, dict):
                raise SchemaError(f"theta[{i}]: expected an object")
            w = _expect(item, "weight", int, f"theta[{i}].")
            W = parse_subbundle(
                V.bundle, _expect(item, "subbundle", dict, f"theta[{i}]."),
                f"theta[{i}].subbundle",
            )
            steps.append((w, W))
        theta = tuple(steps)
    family = family_points = None
    if "family" in doc:
        family, family_points = parse_family(V, doc["family"])
    hom = None
    if "hom" in doc:
        hdoc = doc["hom"]
        if not isinstance(hdoc, dict):
            raise SchemaError("hom: expected an object")
        merged = {
            "field": doc["field"],
            "splitting_type": _expect(hdoc, "splitting_type", list, "hom."),
            "points": doc.get("points", []),
            "weights": doc.get("weights", []),
            "flags": _expect(hdoc, "flags", list, "hom."),
        }
        try:
            hom = parse_bundle(merged)
        except ParahnError as exc:
            raise ConsistencyError(f"hom: {exc}") from exc
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

