#!/usr/bin/env python3
"""Run every applicable law on every preset instance and summarize.

Writes one report directory per instance under --out (default ./reports).
Exact instances run 200 trials per law; the integrator-backed instance
runs 40.  The broken presets are expected to fail exactly their advertised
law; anything else counts as a surprise and flips the exit status.
"""

import argparse
import sys
from pathlib import Path

from fibretransport.cli import law_filename, run_law
from fibretransport.instances import instance_names, make_instance

# Trials per law on exact instances and on integrator-backed ones.
TRIALS, HEAVY_TRIALS = 200, 40


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=Path("reports"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    surprises = []
    for name in instance_names():
        spec = make_instance(name)
        trials = HEAVY_TRIALS if spec.step is not None else TRIALS
        outdir = args.out / name.replace(":", "_")
        outdir.mkdir(parents=True, exist_ok=True)
        expected_fail = spec.transport.violates
        print(f"\n=== {name} (trials {trials}) ===")
        for law in spec.applicable:
            report = run_law(spec, law, trials=trials, seed=args.seed)
            (outdir / law_filename(law)).write_text(report.to_json())
            status = "PASS" if report.passed else "FAIL"
            note = ""
            if not report.passed and law == expected_fail:
                note = "  (expected for this instance)"
            elif not report.passed:
                surprises.append((name, law, "failed"))
            elif law == expected_fail:
                note = "  (should have failed!)"
                surprises.append((name, law, "passed but should fail"))
            print(f"  {law:<14} {status}  max_dev={report.max_deviation:.3g}"
                  f"{note}")

    print()
    if surprises:
        print("surprises:")
        for name, law, what in surprises:
            print(f"  {name} law {law}: {what}")
        return 1
    print("all instances behaved as documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
