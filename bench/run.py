"""parahn benchmark harness.

    python3 bench/run.py --workload hn-ladder --seed 1 --seconds 24 --trace 0

Runs one workload from the root of a source checkout.  Every item runs in a
fresh interpreter started by this harness, so parahn's module-level caches
start empty in each worker.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is one JSON
object; the exit code is 0 only when every item ran and passed its checks.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402
from spans import TRACED_MODULES  # noqa: E402

WORKLOADS = ("hn-ladder", "stratify-sweep", "cli-mix")
SETUP_PROBES = 9
IMPORT_PROBES = 5
# wall-time caps, seconds
RUNG_CAP = 60.0
STRATIFY_CAP = 150.0
CLI_CAP = 30.0
SETUP_CAP = 30.0
# item_tail_ms: the highest percentile with at least ten items beyond it in
# the smallest run; hn-ladder has too few items, so its p95 is the median
# item of the slowest rung
TAIL_PERCENTILE = {"hn-ladder": 95, "stratify-sweep": 98, "cli-mix": 80}


class Proc:
    """A finished child process with its own resource usage (from wait4)."""

    def __init__(self, out, code, wall, cpu, rss_kb, timed_out, err):
        self.out, self.code, self.wall = out, code, wall
        self.cpu, self.rss_kb, self.timed_out, self.err = cpu, rss_kb, timed_out, err

    def failure(self):
        if self.timed_out:
            return "timeout"
        if self.code != 0:
            tail = self.err.strip().splitlines()[-1:] or [""]
            return f"exit code {self.code}: {tail[0][:200]}"
        return None

    def result(self):
        lines = self.out.decode("utf-8", "replace").strip().splitlines()
        return json.loads(lines[-1])


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("PARAHN_BUDGET", None)

    def spawn(self, argv, cap) -> Proc:
        err_path = self.work / "stderr.txt"
        fired = []

        t0 = time.perf_counter()
        with open(err_path, "w+b") as err:
            p = subprocess.Popen(
                [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=ROOT,
            )

            def kill():
                fired.append(True)
                p.kill()

            timer = threading.Timer(cap, kill)
            timer.start()
            try:
                out = p.stdout.read()
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                # interrupted: leave no child behind
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
                p.stdout.close()
            p.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
            err.seek(0)
            err_text = err.read().decode("utf-8", "replace")
        return Proc(out, p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                    bool(fired), err_text)


class Tally:
    """Items attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, name, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{name}: {problem}")


def load_expected():
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail(values, percentile):
    """(value, items strictly beyond it)."""
    if len(values) < 2:
        v = max(values)
    else:
        v = statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]
    return v, sum(1 for x in values if x > v)


# -- item runners --------------------------------------------------------------


def ladder_pass(runner, seed, tally, expected, check_digest, prefix=None,
                rounds=workloads.LADDER_ROUNDS):
    """One cold pass over the ladder: each rung item in its own worker."""
    items, procs, traces = [], [], []
    t0 = time.perf_counter()
    for rung, slot in workloads.ladder_slots(rounds):
        argv = [str(BENCH / "worker.py"), "rung", str(seed), rung, str(slot)]
        if prefix:
            argv.append(f"{prefix}-{rung}-{slot}")
        proc = runner.spawn(argv, RUNG_CAP)
        procs.append(proc)
        problem = proc.failure()
        seconds = proc.wall
        if problem is None:
            res = proc.result()
            seconds = res["seconds"]
            problem = res["problem"]
            want = expected["hn-ladder"].get(f"{rung}:{slot}")
            if problem is None and check_digest and res["digest"] != want:
                problem = f"digest {res['digest']} != pinned {want}"
            if res["trace"]:
                traces.append(res["trace"])
        tally.add(f"hn-ladder {rung}:{slot}", problem)
        items.append((rung, seconds))
    wall = time.perf_counter() - t0
    return wall, items, procs, traces


def stratify_pass(runner, seed, tally, expected, prefix=None):
    argv = [str(BENCH / "worker.py"), "stratify", str(seed)]
    if prefix:
        argv.append(prefix)
    proc = runner.spawn(argv, STRATIFY_CAP)
    problem = proc.failure()
    if problem is not None:
        tally.add("stratify-sweep pass", problem)
        return proc, [], None
    res = proc.result()
    pass_problems = list(res["problems"])
    if res["digest"] != expected["stratify-sweep"]:
        pass_problems.append(f"digest {res['digest']} != pinned {expected['stratify-sweep']}")
    for k, item in enumerate(res["items"]):
        # a wrong answer set fails every item of the pass
        tally.add(f"stratify-sweep item {k}", item["problem"] or (pass_problems[0] if pass_problems else None))
    return proc, [it["seconds"] for it in res["items"]], res["trace"]


def write_cli_specs(work: Path, seed: int):
    items = []
    for name, cmd, doc, extra, check in workloads.cli_items(seed):
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        items.append((name, cmd, path, extra, check))
    return items


def cli_pass(runner, items, tally, expected, check_digest, prefix=None):
    walls, procs, traces = [], [], []
    t0 = time.perf_counter()
    for name, cmd, path, extra, check in items:
        args = [cmd, "--input", str(path), *extra]
        if prefix:
            argv = [str(BENCH / "worker.py"), "cli", f"{prefix}-{name}", *args]
        else:
            argv = ["-m", "parahn.cli", *args]
        proc = runner.spawn(argv, CLI_CAP)
        procs.append(proc)
        problem = proc.failure()
        if problem is None:
            problem, dg = workloads.check_report(check, proc.out.decode("utf-8"))
            want = expected["cli-mix"].get(name)
            if problem is None and check_digest and dg != want:
                problem = f"digest {dg} != pinned {want}"
            if prefix:
                with open(f"{prefix}-{name}.summary.json", encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        tally.add(f"cli-mix {name}", problem)
        walls.append(proc.wall)
    return time.perf_counter() - t0, walls, procs, traces


def setup_seconds(runner, workload, seed, tally):
    """Median wall time of fresh processes that import parahn, build the
    workload's inputs and exit (cli-mix: import parahn.cli and exit)."""
    if workload == "cli-mix":
        argv = ["-c", "import parahn.cli"]
    else:
        argv = [str(BENCH / "worker.py"), "setup", workload, str(seed)]
    walls = []
    for _ in range(SETUP_PROBES):
        proc = runner.spawn(argv, SETUP_CAP)
        tally.add(f"{workload} set-up", proc.failure())
        walls.append(proc.wall)
    return statistics.median(walls)


def rung_metrics(items):
    """Median wall time per rung; 0 for a rung the items do not include."""
    return {
        f"rung.{rung}_s": (statistics.median([s for r, s in items if r == rung] or [0.0]), "s")
        for rung in workloads.RUNGS
    }


# -- modes ---------------------------------------------------------------------


def timed_run(runner, workload, seed, seconds, tally):
    expected = load_expected()
    check_digest = seed == workloads.DEFAULT_SEED
    setup = setup_seconds(runner, workload, seed, tally)
    walls, cpus, items, rss, rung_items = [], [], [], [], []
    cli_specs = write_cli_specs(runner.work, seed) if workload == "cli-mix" else None
    start = time.perf_counter()
    # whole passes: start another only if it should end within the budget
    while not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds:
        if workload == "hn-ladder":
            wall, its, procs, _ = ladder_pass(runner, seed, tally, expected, check_digest)
            items += [s for _, s in its]
            rung_items += its
        elif workload == "stratify-sweep":
            proc, its, _ = stratify_pass(runner, seed, tally, expected)
            wall, procs = proc.wall, [proc]
            items += its
        else:
            wall, its, procs, _ = cli_pass(runner, cli_specs, tally, expected, check_digest)
            items += its
        walls.append(wall)
        cpus.append(sum(p.cpu for p in procs))
        rss.append(max(p.rss_kb for p in procs))
    if not items:
        items = [0.0]
    pct = TAIL_PERCENTILE[workload]
    tail_v, beyond = tail(items, pct)
    metrics = {
        "solve_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "item_p50_ms": (statistics.median(items) * 1000.0, "ms"),
        "item_tail_ms": (tail_v * 1000.0, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    # per-rung times are reported beside the metrics, on hn-ladder only
    notes = {}
    if workload == "hn-ladder":
        notes["rungs"] = {k: v for k, (v, _) in rung_metrics(rung_items).items()}
    notes.update({
        "passes": len(walls),
        "items": len(items),
        "tail_percentile": pct,
        "items_beyond_tail": beyond,
    })
    return metrics, notes


def import_seconds(runner, tally):
    """Cumulative import time of parahn.cli, from python -X importtime."""
    vals = []
    for _ in range(IMPORT_PROBES):
        proc = runner.spawn(["-X", "importtime", "-c", "import parahn.cli"], SETUP_CAP)
        tally.add("import probe", proc.failure())
        for line in proc.err.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*parahn\.cli\s*$", line)
            if m:
                vals.append(int(m.group(2)) / 1e6)
    return statistics.median(vals) if vals else 0.0


def merge_traces(traces):
    funcs, ctx, counters = {}, {}, {}
    for t in traces:
        for name, st in t["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for k, v in t["contexts"].items():
            ctx[k] = ctx.get(k, 0) + v
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return funcs, ctx, counters


def layer_metrics(traces):
    funcs, ctx, counters = merge_traces(traces)

    def f(name, key):
        return funcs.get(name, {}).get(key, 0)

    enum = "sheaves.enumerate_subbundles"
    m = {
        f"{enum}.calls": (f(enum, "calls"), "count"),
        f"{enum}.self_s": (f(enum, "self_s"), "s"),
        f"{enum}.total_s": (f(enum, "total_s"), "s"),
    }
    m["hn.windows"] = (ctx.get("hn.windows", 0), "count")
    cand = counters.get("sheaves.candidates", 0)
    subs = counters.get("sheaves.subbundles", 0)
    m["sheaves.candidates"] = (cand, "count")
    m["sheaves.subbundles"] = (subs, "count")
    m["sheaves.yield_ratio"] = (subs / cand if cand else 0.0, "ratio")
    calls = f("sheaves.subbundle_validate", "calls")
    m["sheaves.subbundle_validate.calls"] = (calls, "count")
    m["sheaves.subbundle_validate.self_s"] = (f("sheaves.subbundle_validate", "self_s"), "s")
    acc = counters.get("sheaves.subbundle_validate.accepted", 0)
    m["sheaves.subbundle_validate.accept_ratio"] = (acc / calls if calls else 0.0, "ratio")
    m["sheaves.poly_det.calls"] = (f("sheaves.poly_det", "calls"), "count")
    m["poly.pgcd.calls"] = (f("poly.pgcd", "calls"), "count")
    for name in ("sheaves.canonical_key", "hn.max_destabilizing", "hn.hn_filtration",
                 "parabolic.induced_quot_datum", "sheaves.poly_mat_rank"):
        m[f"{name}.calls"] = (f(name, "calls"), "count")
        m[f"{name}.self_s"] = (f(name, "self_s"), "s")
    m["linalg.rref.in_canonical_key.self_s"] = (ctx.get("linalg.rref.in_canonical_key.self_s", 0.0), "s")
    m["hn.certify_s"] = (ctx.get("hn.certify_s", 0.0), "s")
    m["linalg.intersect_dim.calls"] = (f("linalg.intersect_dim", "calls"), "count")
    m["linalg.rref.calls"] = (f("linalg.rref", "calls"), "count")
    m["linalg.rref.in_induced_quot_datum.self_s"] = (
        ctx.get("linalg.rref.in_induced_quot_datum.self_s", 0.0), "s")
    m["hn.quot_points.total_s"] = (f("hn.quot_points", "total_s"), "s")
    m["hn.fil_points.total_s"] = (f("hn.fil_points", "total_s"), "s")
    m["specio.parse_spec.total_s"] = (f("specio.parse_spec", "total_s"), "s")
    m["specio.emit.total_s"] = (ctx.get("specio.emit.total_s", 0.0), "s")
    m["cli.render_s"] = (f("cli.main", "total_s") - f("cli.run_command", "total_s"), "s")
    for mod in TRACED_MODULES:
        mine = [st for name, st in funcs.items() if name.startswith(mod + ".")]
        m[f"layer.{mod}.calls"] = (sum(st["calls"] for st in mine), "count")
        m[f"layer.{mod}.self_s"] = (sum(st["self_s"] for st in mine), "s")
    return m


def traced_run(runner, workload, seed, tally):
    """One untraced pass, then the same pass traced; per-layer metrics."""
    expected = load_expected()
    check_digest = seed == workloads.DEFAULT_SEED
    tdir = ROOT / ".bench_work" / "trace" / workload
    shutil.rmtree(tdir, ignore_errors=True)
    tdir.mkdir(parents=True)
    prefix = str(tdir / "spans")
    import_s = import_seconds(runner, tally)
    rung_items = []
    if workload == "hn-ladder":
        # one round each way keeps the traced run short
        base, rung_items, _, _ = ladder_pass(runner, seed, tally, expected, check_digest, rounds=1)
        traced, _, _, traces = ladder_pass(runner, seed, tally, expected, check_digest, prefix, rounds=1)
    elif workload == "stratify-sweep":
        proc, _, _ = stratify_pass(runner, seed, tally, expected)
        base = proc.wall
        proc, _, trace = stratify_pass(runner, seed, tally, expected, prefix)
        traced, traces = proc.wall, [trace] if trace else []
    else:
        specs = write_cli_specs(runner.work, seed)
        base, *_ = cli_pass(runner, specs, tally, expected, check_digest)
        traced, _, _, traces = cli_pass(runner, specs, tally, expected, check_digest, prefix)
    metrics = layer_metrics(traces)
    metrics.update(rung_metrics(rung_items))
    metrics["setup.import_s"] = (import_s, "s")
    metrics["trace.solve_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - base, "s")
    notes = {"untraced_solve_s": base, "spans": sum(t["spans"] for t in traces), "trace_dir": str(tdir.relative_to(ROOT))}
    return metrics, notes


# -- entry point ------------------------------------------------------------------


def context(seed):
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "parahn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "parahn" / "__init__.py").is_file():
        print(f"bench: no parahn source tree under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner = Runner(work)
        # untimed warm-up: compile bytecode so set-up measures import only
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "parahn"), str(BENCH)],
            env=runner.env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        ctx = context(args.seed)
        ctx["workload"] = args.workload
        ctx["trace"] = args.trace
        tally = Tally()
        if args.trace:
            metrics, notes = traced_run(runner, args.workload, args.seed, tally)
        else:
            metrics, notes = timed_run(runner, args.workload, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx.update(notes)
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(json.dumps({"context": ctx}))
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    for name, value in notes.get("rungs", {}).items():
        print(f"{name:48s} {value:14.6f} s (median per rung, no bound)")
    print(f"{'fail_ratio':48s} {fail_ratio:14.6f} ratio ({tally.failed}/{tally.attempted})")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
