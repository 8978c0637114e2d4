"""Seeded inputs and output checks for the three workloads.

Every input is a pure function of the seed.  parahn only ever sees the
generated bundles (library workloads) or spec documents (cli-mix).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from oracles import gaussian_binomial, line_subbundle_count

DEFAULT_SEED = 1

# name -> (p, k, splitting type, number of marked points)
RUNGS = {
    "r3_twisted_f3": (3, 1, (1, 0, -1), 2),
    "r3_f3": (3, 1, (0, 0, 0), 2),
    "r3_f4": (2, 2, (0, 0, 0), 2),
    "r4_f2": (2, 1, (0, 0, 0, 0), 1),
}
# One ladder round, in order: the cheap rungs run more than once.  A pass is
# two rounds, so each rung's median rests on at least two cold processes
# spread over the pass; a single multi-second item drifts with the host.
# r3_twisted_f3 holds the middle of the 16 items (places 5-12 of the sorted
# pass), so the pass median is the median of its eight items, not an item
# at the edge of a rung.  Its items sit between the heavy ones, so one slow
# stretch of the host does not cover them all.
ROUND = ("r3_twisted_f3", "r3_f3", "r3_twisted_f3", "r3_f4",
         "r3_twisted_f3", "r3_f3", "r3_twisted_f3", "r4_f2")
LADDER_ROUNDS = 2


def ladder_slots(rounds=LADDER_ROUNDS):
    """(rung, slot) items of a pass; slots number each rung's draws."""
    seen = dict.fromkeys(RUNGS, 0)
    out = []
    for _ in range(rounds):
        for rung in ROUND:
            out.append((rung, seen[rung]))
            seen[rung] += 1
    return tuple(out)


STRATIFY_WEIGHTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
STRATIFY_HISTOGRAM = (168, 168, 42, 42, 21)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- documents -----------------------------------------------------------------


def _elem(F, a):
    return str(a) if F.k == 1 else list(F.coeffs(a))


def _general_flag(F, n, rng, others):
    """A random full flag of F^n in general position to the coordinate flag
    <e_1> < <e_1, e_2> < ... and to every flag in `others` (bases as rows).

    General position fixes the HN type of each rung, so a rung's cost does
    not swing with the seed between a cheap, very unstable bundle and a
    generic one.
    """
    from parahn.linalg import intersect_dim, rank

    coord = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    while True:
        vecs = [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n)]
        if rank(F, vecs) != n:
            continue
        if all(
            intersect_dim(F, vecs[:m], ref[:j]) == max(0, m + j - n)
            for ref in [coord, *others]
            for m in range(1, n)
            for j in range(1, n)
        ):
            return vecs


def bundle_doc(F, twists, npts, flag_bases, weights):
    n = len(twists)
    return {
        "field": {"p": F.p, "k": F.k},
        "splitting_type": list(twists),
        "points": [_elem(F, x) for x in range(npts)],
        "weights": [[str(w) for w in weights] for _ in range(npts)],
        "flags": [
            {
                "jumps": [1] * n,
                "subspaces": [
                    [[_elem(F, c) for c in v] for v in vecs[:m]] for m in range(1, n)
                ],
            }
            for vecs in flag_bases
        ],
    }


def rung_doc(seed: int, rung: str, slot: int) -> dict:
    """The spec document of one ladder item: full flags in general position,
    weights i/(n+1) at every point."""
    from parahn.gf import field_make

    p, k, twists, npts = RUNGS[rung]
    F = field_make(p, k)
    n = len(twists)
    rng = random.Random(f"hn-ladder:{seed}:{rung}:{slot}")
    bases = []
    for _ in range(npts):
        bases.append(_general_flag(F, n, rng, bases))
    weights = [Fraction(i, n + 1) for i in range(1, n + 1)]
    return bundle_doc(F, twists, npts, bases, weights)


# -- stratify-sweep --------------------------------------------------------------


def full_flags_f2_3():
    """The 21 full flags of F_2^3 as (line, plane) row bases, in a fixed order."""
    from parahn.gf import field_make
    from parahn.linalg import row_space_basis

    F = field_make(2, 1)
    vecs = [v for v in ((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)) if any(v)]
    flags = {}
    for v in vecs:
        for w in vecs:
            plane = row_space_basis(F, [v, w])
            if len(plane) == 2:
                flags.setdefault((v, plane), ((v,), plane))
    return list(flags.values())


def stratify_order(seed: int):
    """All 441 ordered pairs of flag indices, in an order drawn from the seed."""
    pairs = [(i, j) for i in range(21) for j in range(21)]
    random.Random(f"stratify-sweep:{seed}").shuffle(pairs)
    return pairs


def stratify_bundles(flags, pairs):
    from parahn.gf import field_make
    from parahn.parabolic import ParabolicBundle, flag_make
    from parahn.sheaves import SplitBundle

    F = field_make(2, 1)
    E = SplitBundle(F, (0, 0, 0))
    made = [flag_make(F, 3, (1, 1, 1), fl) for fl in flags]
    w = (STRATIFY_WEIGHTS, STRATIFY_WEIGHTS)
    return [ParabolicBundle(E, (0, 1), (made[i], made[j]), w) for i, j in pairs]


def check_stratify(datum_by_pair) -> list[str]:
    """Point-swap symmetry and the strata histogram; returns the problems."""
    problems = []
    swapped = [(i, j) for (i, j), d in datum_by_pair.items() if datum_by_pair[(j, i)] != d]
    if swapped:
        problems.append(f"{len(swapped)} pairs break point-swap symmetry")
    hist = {}
    for d in datum_by_pair.values():
        hist[tuple(d)] = hist.get(tuple(d), 0) + 1
    got = tuple(sorted(hist.values(), reverse=True))
    if got != STRATIFY_HISTOGRAM:
        problems.append(f"strata histogram {got} != {STRATIFY_HISTOGRAM}")
    return problems


# -- checks shared by the library workloads ---------------------------------------


def check_filtration(V, filt) -> str | None:
    """Engine-independent invariants of an HN filtration; None if all hold."""
    from parahn.hn import hn_datum
    from parahn.parabolic import parabolic_degree

    if sum(hn_datum(filt)) != parabolic_degree(V):
        return "datum does not sum to the parabolic degree"
    if any(not a > b for a, b in zip(filt.slopes, filt.slopes[1:])):
        return "graded slopes do not strictly decrease"
    ranks = [W.rank for W in filt.steps]
    if any(b <= a for a, b in zip(ranks, ranks[1:])) or ranks[-1] != V.rank:
        return "step ranks are not strictly increasing to the full rank"
    if any(not b.contains(a) for a, b in zip(filt.steps, filt.steps[1:])):
        return "steps are not nested"
    return None


# -- cli-mix -----------------------------------------------------------------------

def _random_flag(F, n, rng, jumps):
    """A random flag with the given jumps (row bases), any position."""
    from parahn.linalg import rank

    while True:
        vecs = [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n)]
        if rank(F, vecs) == n:
            break
    out, dim = [], 0
    for a in jumps[:-1]:
        dim += a
        out.append(vecs[:dim])
    return out


def _small_doc(rng, p, twists, npts, jumps=None):
    from parahn.gf import field_make

    F = field_make(p, 1)
    n = len(twists)
    jumps = jumps or [1] * n
    wts = [Fraction(i, len(jumps) + 1) for i in range(1, len(jumps) + 1)]
    doc = bundle_doc(F, twists, npts, [[] for _ in range(npts)], wts)
    for fl in doc["flags"]:
        fl["jumps"] = list(jumps)
        fl["subspaces"] = [
            [[str(c) for c in v] for v in rows] for rows in _random_flag(F, n, rng, jumps)
        ]
    return doc


def _datum_for(doc, spread=Fraction(0)):
    """A datum of the document's total degree: every entry at the parabolic
    slope, the first raised and the last lowered by `spread`."""
    n = len(doc["splitting_type"])
    deg = Fraction(sum(doc["splitting_type"]))
    for lam, fl in zip(doc["weights"], doc["flags"]):
        deg += n - sum(Fraction(w) * a for w, a in zip(lam, fl["jumps"]))
    P = [deg / n] * n
    P[0] += spread
    P[-1] -= spread
    return [f"{x.numerator}/{x.denominator}" for x in P]


def cli_items(seed: int):
    """One cli-mix pass: (name, command, document, extra flags, check) tuples.

    33 cheap items cover all twelve commands, where start-up, parsing and
    rendering dominate.  17 heavy items sit among them: twelve rank-3 HN
    types over F_3 (about 0.7 s each) and five runs of the 8,424-line
    enum-sub window (about 1 s).  So the median falls in the middle of the
    cheap items and the 80th percentile, with ten items beyond it, in the
    middle of the HN items.
    """
    rng = random.Random(f"cli-mix:{seed}")
    items = []

    def add(name, cmd, doc, extra=(), check=None):
        items.append((name, cmd, doc, tuple(extra), check))

    for i in range(4):
        add(f"hn.r2_f3.{i}", "hn", _small_doc(rng, 3, (0, 0), 2), check=("hn",))
    add("hn.r2_f5", "hn", _small_doc(rng, 5, (1, 0), 2), check=("hn",))
    add("hn.r2_f2", "hn", _small_doc(rng, 2, (1, -1), 2), check=("hn",))
    add("hn.r3_f2", "hn", _small_doc(rng, 2, (0, 0, 0), 1), check=("hn",))
    add("hn.extend2", "hn", _small_doc(rng, 3, (0, 0), 1), ["--extend", "2"], check=("hn",))
    add("hn.md", "hn", _small_doc(rng, 3, (1, 0), 2), ["--format", "md"], check=("md",))
    for i in range(4):
        doc = _small_doc(rng, 3, (0, 0), 2)
        doc["datum"] = _datum_for(doc)
        add(f"strata.{i}", "strata", doc)
    for n, r, p in ((3, 2, 3), (4, 2, 2), (3, 2, 5)):
        doc = _small_doc(rng, p, (0,) * n, 0)
        doc["quot"] = {"rank": r, "degree": 0}
        add(f"enum-sub.gauss_{n}{r}_{p}", "enum-sub", doc, check=("count", gaussian_binomial(n, r, p)))
    doc = _small_doc(rng, 3, (0, 0, 0), 0)
    doc["quot"] = {"rank": 1, "degree": -1}
    add("enum-sub.lines_d-1", "enum-sub", doc, check=("count", line_subbundle_count((0, 0, 0), 3, -1)))
    for i in range(2):
        doc = _small_doc(rng, 3, (0, 0), 2)
        doc["quot"] = {"rank": 1, "degree": -1, "jumps": [[1, 0], [0, 1]]}
        add(f"quot-points.{i}", "quot-points", doc)
    for i in range(2):
        doc = _small_doc(rng, 2, (0, 0, 0), 1)
        doc["fil"] = [
            {"rank": 1, "degree": 0, "jumps": [[0, 1, 0]]},
            {"rank": 2, "degree": 0, "jumps": [[1, 1, 0]]},
        ]
        add(f"fil-points.{i}", "fil-points", doc)
    for i in range(2):
        doc = _small_doc(rng, 3, (0, 0), 2)
        c = rng.randrange(1, 3)
        doc["family"] = {
            "extension_degree": 2,
            "flags": [
                {"jumps": [1, 1], "subspaces": [[[[1], []]]]},
                {"jumps": [1, 1], "subspaces": [[[[1], [c, 1]]]]},
            ],
            "evaluate_at": [[u, v] for u in range(3) for v in range(3) if (u, v) != (0, 0)][:4],
        }
        add(f"family.{i}", "family", doc)
    for i in range(2):
        doc = _small_doc(rng, 3, (0, 0), 1)
        doc["hom"] = {
            "splitting_type": [1, -1],
            "flags": [{"jumps": [1, 1], "subspaces": [[["1", str(rng.randrange(3))]]]}],
        }
        add(f"hom.{i}", "hom", doc)
    for cmd in ("bounds-F", "bounds-B", "sigma"):
        for i in range(1 + (cmd == "sigma")):
            doc = _small_doc(rng, 3, (0, 0), 2)
            doc["datum"] = _datum_for(doc, Fraction(1, 2) if cmd == "sigma" else Fraction(0))
            add(f"{cmd}.{i}", cmd, doc)
    for i in range(2):
        doc = _small_doc(rng, 3, (0, 0), 1)
        doc["theta"] = [{"weight": 1, "subbundle": {"col_twists": [0], "matrix": [[[1]], [[rng.randrange(3)]]]}}]
        add(f"theta-weight.{i}", "theta-weight", doc)
    for i in range(2):
        doc = _small_doc(rng, 3, (0, 0, 0), 2, jumps=[1, 2])
        add(f"admissible.{i}", "admissible", doc)
    # heavy class
    for i in range(5):
        doc = _small_doc(rng, 3, (0, 0, 0), 0)
        doc["quot"] = {"rank": 1, "degree": -2}
        add(f"enum-sub.lines_d-2.{i}", "enum-sub", doc, check=("count", line_subbundle_count((0, 0, 0), 3, -2)))
    for i in range(12):
        add(f"hn.r3_f3.{i}", "hn", rung_doc(seed, "r3_f3", 100 + i), check=("hn",))
    # heavy items sit evenly through the pass, so each class samples the
    # whole pass and not one stretch of a drifting host
    return _spread_out(items[:33], _spread_out(items[38:], items[33:38]))


def _spread_out(base, extra):
    """`base` with the items of `extra` placed at even intervals."""
    out, h = [], 0
    total = len(base) + len(extra)
    for i in range(total):
        if h < len(extra) and (i + 1) * len(extra) >= (h + 1) * total:
            out.append(extra[h])
            h += 1
        else:
            out.append(base[i - h])
    return out


def check_report(check, text: str):
    """Check one CLI report; returns (problem or None, digest of the stable part)."""
    if check and check[0] == "md":
        lines = [ln for ln in text.splitlines() if "**timing_ms**" not in ln]
        if not lines or not lines[0].startswith("# parahn report: "):
            return "markdown report lacks its heading", digest(lines)
        return None, digest(lines)
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON", digest(text)
    report.pop("timing_ms", None)
    dg = digest(report)
    if "error" in report or "result" not in report:
        return f"report carries an error: {report.get('error')}", dg
    res = report["result"]
    if check and check[0] == "count" and res.get("count") != check[1]:
        return f"count {res.get('count')} != closed form {check[1]}", dg
    if check and check[0] == "hn":
        datum = [Fraction(x) for x in res["datum"]]
        slopes = [Fraction(s["relative_slope"]) for s in res["filtration"]]
        ranks = [s["subbundle"]["rank"] for s in res["filtration"]]
        if sum(datum) != Fraction(res["parabolic_degree"]):
            return "datum does not sum to the parabolic degree", dg
        if any(not a > b for a, b in zip(slopes, slopes[1:])):
            return "graded slopes do not strictly decrease", dg
        if any(b <= a for a, b in zip(ranks, ranks[1:])) or ranks[-1] != len(datum):
            return "step ranks are not strictly increasing to the full rank", dg
    return None, dg
