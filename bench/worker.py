"""Worker process: runs one item set in a fresh interpreter and reports JSON.

    worker.py setup WORKLOAD SEED          build the inputs, then exit
    worker.py rung SEED RUNG SLOT [TRACE]  one cold hn_filtration
    worker.py stratify SEED [TRACE]        the 441-bundle sweep, warm
    worker.py cli TRACE ARGV...            parahn.cli.main(ARGV) with spans

TRACE is a path prefix: when given, the worker installs the span wrappers
before solving and writes the spans and their per-process summary there.
The last line on standard output is the worker's JSON result (for ``cli``,
standard output is the command's own report and the summary goes to
TRACE.summary.json).
"""

from __future__ import annotations

import json
import signal
import sys
import time

import workloads

ITEM_CAP_S = 10.0  # wall-time cap of one stratify-sweep bundle


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def _start_trace(prefix):
    if not prefix:
        return None
    from spans import Tracer

    return Tracer().install()


def _finish_trace(tracer, prefix):
    if tracer is None:
        return None
    tracer.uninstall()
    tracer.dump(prefix)
    return tracer.summary()


# Library calls go through the module (`hn.hn_filtration`), so that the
# wrappers a traced run installs after import are the ones called.


def run_rung(seed, rung, slot, prefix=None):
    from parahn import hn
    from parahn.specio import emit_filtration, parse_bundle

    V = parse_bundle(workloads.rung_doc(seed, rung, slot))
    tracer = _start_trace(prefix)
    t0 = time.perf_counter()
    filt = hn.hn_filtration(V)
    problem = workloads.check_filtration(V, filt)
    seconds = time.perf_counter() - t0
    dg = workloads.digest(emit_filtration(filt))
    return {
        "seconds": seconds,
        "problem": problem,
        "digest": dg,
        "trace": _finish_trace(tracer, prefix),
    }


def run_stratify(seed, prefix=None):
    from parahn import hn
    from parahn.specio import emit_datum

    pairs = workloads.stratify_order(seed)
    bundles = workloads.stratify_bundles(workloads.full_flags_f2_3(), pairs)
    signal.signal(signal.SIGALRM, _alarm)
    tracer = _start_trace(prefix)
    items, data = [], {}
    for pair, V in zip(pairs, bundles):
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
        try:
            filt = hn.hn_filtration(V)
            problem = workloads.check_filtration(V, filt)
        except ItemTimeout:
            problem = "timeout"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        items.append({"seconds": time.perf_counter() - t0, "problem": problem})
        if problem is None:
            data[pair] = emit_datum(hn.hn_datum(filt))
    problems = []
    if len(data) == len(pairs):
        problems = workloads.check_stratify(data)
    dg = workloads.digest(sorted([list(k), v] for k, v in data.items()))
    return {
        "items": items,
        "problems": problems,
        "digest": dg,
        "trace": _finish_trace(tracer, prefix),
    }


def run_setup(workload, seed):
    if workload == "hn-ladder":
        from parahn.specio import parse_bundle

        for rung, slot in workloads.ladder_slots():
            parse_bundle(workloads.rung_doc(seed, rung, slot))
    elif workload == "stratify-sweep":
        workloads.stratify_bundles(workloads.full_flags_f2_3(), workloads.stratify_order(seed))
    else:
        raise SystemExit(f"no library set-up for {workload}")
    return {}


def run_cli(prefix, argv):
    tracer = _start_trace(prefix)
    import parahn.cli

    code = parahn.cli.main(argv)
    sys.stdout.flush()
    summary = _finish_trace(tracer, prefix)
    with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


def main(argv):
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    if mode == "setup":
        out = run_setup(argv[1], int(argv[2]))
    elif mode == "rung":
        out = run_rung(int(argv[1]), argv[2], int(argv[3]), argv[4] if len(argv) > 4 else None)
    elif mode == "stratify":
        out = run_stratify(int(argv[1]), argv[2] if len(argv) > 2 else None)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
