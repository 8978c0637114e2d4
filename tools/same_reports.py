"""Report-by-report comparison of two parahn source trees.

    python3 tools/same_reports.py --before DIR --after DIR

Each tree is a checkout with its own `bench/` and `src/`.  For seeds 1 and 7
the script runs, in both trees, every cli-mix item (`bench/workloads.py`
`cli_items`) as a `python -m parahn.cli` process, every hn-ladder item
(`ladder_slots`) through `bench/worker.py rung`, and the stratify-sweep pass
through `bench/worker.py stratify`.  An enumeration pass then runs
`enumerate_subbundles` in both trees on the fixed window grid `ENUM_WINDOWS`
and compares every subbundle's column twists and printed matrix, window by
window: no report prints these windows whole.  It prints each output that
differs between the trees, apart from the CLI's `timing_ms` and the worker's
`seconds` (of the sweep it compares the `digest` and the `problems`), and
exits 1 if any does.  Exit codes are compared too.  The input documents come
from the after tree's `bench/workloads.py`; items run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)

# (p, k, twists, rank, degree) for the enumeration pass; each window's least
# column twist is d - (r - 1) a_1, as in tests/oracles.polygon_certificate.
# O^4 over F_2 at (3, -1) is the costliest window of the hn-ladder rung r4_f2.
# (1, 0, 0, -1) at rank 3 and O^4 at rank 4 walk three and four column
# levels, with unequal column twists in the first; O^5 has ten row subsets.
# F_257 and F_512 have no op tables, so their windows run the element-method
# branch of every row primitive.
ENUM_WINDOWS = (
    [(2, 1, (0, 0, 0, 0), r, d) for r, d in ((3, 0), (3, -1), (2, 0), (2, -1), (4, 0))]
    + [(2, 1, (1, 0, 0, -1), 3, d) for d in (0, -1)]
    + [(3, 1, (1, 0, -1), 2, d) for d in (1, 0, -1)]
    + [(3, 1, (1, 0, -1), 1, d) for d in (1, 0, -1, -2)]
    + [(3, 1, (0, 0, 0), 2, d) for d in (0, -1)]
    + [(2, 2, (0, 0, 0), 2, -1), (3, 1, (0, 0, 0), 1, -2)]
    + [(5, 1, (0, 0, 0), 2, 0), (2, 3, (0, 0, 0), 2, 0), (2, 1, (0, 0, 0, 0, 0), 2, 0)]
    + [(257, 1, (0, 0), 1, 0), (2, 9, (0, 0), 1, 0)]
)
ENUM_SCRIPT = """
import json, sys
from parahn.gf import field_make
from parahn.sheaves import SplitBundle, enumerate_subbundles
for p, k, twists, r, d in json.loads(sys.argv[1]):
    E = SplitBundle(field_make(p, k), twists)
    subs = enumerate_subbundles(E, r, d, d - (r - 1) * twists[0])
    print(json.dumps([[W.col_twists, W.mat] for W in subs]))
"""


def stable(text: str) -> str:
    """A report without its run time: JSON loses `timing_ms`, markdown the
    line that carries it."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "\n".join(ln for ln in text.splitlines() if "timing_ms" not in ln)
    report.pop("timing_ms", None)
    return json.dumps(report, sort_keys=True)


def run(tree: Path, argv) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    env.pop("PARAHN_BUDGET", None)
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def cli_output(tree: Path, cmd: str, path: Path, extra) -> tuple:
    code, out = run(tree, ["-m", "parahn.cli", cmd, "--input", str(path), *extra])
    return code, stable(out)


def worker_output(tree: Path, *args, keep=None) -> tuple:
    """A `bench/worker.py` result without its `seconds`, or only its `keep` keys."""
    code, out = run(tree, ["bench/worker.py", *map(str, args)])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return code, out
    result = json.loads(lines[-1])
    result.pop("seconds", None)
    if keep:
        result = {k: result[k] for k in keep}
    return code, json.dumps(result, sort_keys=True)


def stratify_output(tree: Path, seed: int) -> tuple:
    return worker_output(tree, "stratify", seed, keep=("digest", "problems"))


def enum_outputs(tree: Path) -> list:
    """One (exit code, subbundle list) per window of ENUM_WINDOWS."""
    code, out = run(tree, ["-c", ENUM_SCRIPT, json.dumps(ENUM_WINDOWS)])
    lines = out.splitlines()
    lines += [""] * (len(ENUM_WINDOWS) - len(lines))
    return [(code, line) for line in lines]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    args = ap.parse_args(argv)
    before, after = args.before.resolve(), args.after.resolve()
    sys.path[:0] = [str(after / "src"), str(after / "bench")]
    import workloads

    compared, differ = 0, []

    def compare(label, old, new):
        nonlocal compared
        compared += 1
        if old != new:
            differ.append(label)
            print(f"DIFFERS {label}\n  before: exit {old[0]} {old[1][:400]}\n"
                  f"  after:  exit {new[0]} {new[1][:400]}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            jobs = []
            for name, cmd, doc, extra, _ in workloads.cli_items(seed):
                path = Path(tmp) / f"{seed}-{name}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                jobs.append((f"cli-mix seed {seed} {name}", cli_output, (cmd, path, extra)))
            for rung, slot in workloads.ladder_slots():
                jobs.append((f"hn-ladder seed {seed} {rung}.{slot}", worker_output,
                             ("rung", seed, rung, slot)))
            jobs.append((f"stratify-sweep seed {seed}", stratify_output, (seed,)))
            for label, fn, fn_args in jobs:
                compare(label, fn(before, *fn_args), fn(after, *fn_args))
    for (p, k, twists, r, d), old, new in zip(
        ENUM_WINDOWS, enum_outputs(before), enum_outputs(after)
    ):
        compare(f"enumerate F_{p ** k} {twists} rank {r} degree {d}", old, new)
    print(f"{compared} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
