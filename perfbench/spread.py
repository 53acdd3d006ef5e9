"""Run one workload at several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload graph-laws --seeds 101-110 --seconds 30

Each seed is one run of run.py, in its own process, one after the other.
For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile range as a share of the median.  ``--json FILE`` also writes
the runs and the summary, in the form ``baseline.json`` keeps per set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="first-last, e.g. 101-110")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        fingerprint = next(l.split("sha256=")[1].split()[0] for l in lines
                           if l.startswith("fingerprint "))
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"], "fingerprint": fingerprint,
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + "  ".join(
            f"{k} {v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    names = list(runs[0]["metrics"])
    stats = {k: summary([r["metrics"][k] for r in runs]) for k in names}
    for k, s in stats.items():
        print(f"{k}: median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {100 * s['spread']:.1f} %")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": runs, "metrics": stats}, indent=2) + "\n")
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
