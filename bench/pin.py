"""Write bench/expected.json: digests of the default seed's results.

    PYTHONPATH=src python3 bench/pin.py

Run it only when a change is meant to alter results, and say so in
CHANGES.md.  Digests leave out ``timing_ms``; the stratify-sweep digest covers
the whole pair -> datum map, which no seed changes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main():
    seed = workloads.DEFAULT_SEED
    work = run.ROOT / ".bench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work)
    out = {"seed": seed, "hn-ladder": {}, "stratify-sweep": None, "cli-mix": {}}
    for rung, slot in workloads.ladder_slots():
        proc = runner.spawn([str(run.BENCH / "worker.py"), "rung", str(seed), rung, str(slot)], run.RUNG_CAP)
        res = proc.result()
        if res["problem"] is not None:
            raise SystemExit(f"{rung}:{slot}: {res['problem']}")
        out["hn-ladder"][f"{rung}:{slot}"] = res["digest"]
    res = runner.spawn([str(run.BENCH / "worker.py"), "stratify", str(seed)], run.STRATIFY_CAP).result()
    if res["problems"]:
        raise SystemExit(f"stratify-sweep: {res['problems']}")
    out["stratify-sweep"] = res["digest"]
    for name, cmd, path, extra, check in run.write_cli_specs(work, seed):
        proc = runner.spawn(["-m", "parahn.cli", cmd, "--input", str(path), *extra], run.CLI_CAP)
        problem, dg = workloads.check_report(check, proc.out.decode("utf-8"))
        if problem is not None:
            raise SystemExit(f"{name}: {problem}")
        out["cli-mix"][name] = dg
    shutil.rmtree(work, ignore_errors=True)
    Path(run.BENCH / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
