"""Benchmark of fibretransport, driven through its public CLI entry point.

    python3 perfbench/run.py --workload sphere-laws --seed 3 --seconds 20 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory.  Each run is one closed loop in one single-threaded process: a
pass of the workload (see workloads.py) starts when the previous one has
returned, and passes repeat at the same seed until ``--seconds`` have gone
by (at least three).  Before every pass a fresh interpreter imports the
package and builds the workload's instances, three times over.  Every time
is scaled to a fixed reference CPU speed (see speed.py), then the median is
taken: over the passes for ``wall_s`` and ``time_to_accuracy_s``, over the
set-ups for ``setup_s``.  ``--workload all`` runs every workload, each in
its own process, one after the other.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the
same untraced passes, then makes two traced passes at the same seed, checks
that their call counts agree exactly, and prints the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count operations (law checks, or rungs of one loop) over all passes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

import metrics
import workloads
from speed import REFERENCE_PROBE_S, SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3
SETUPS_PER_PASS = 3
SETUP_PROBES = 10         # probes on each side of a set-up, to scale it by


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def check_manifest() -> None:
    """BENCHMARK.json must name exactly the metrics this code reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        ours = [(m.name, m.unit, m.better) for m in table]
        if listed != ours:
            fail(f"BENCHMARK.json {key} disagrees with perfbench/metrics.py")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads disagree with perfbench/workloads.py")


def import_cli():
    """Import the package's CLI module from ``src/``."""
    cli = importlib.import_module("fibretransport.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        fail(f"imported fibretransport from {cli.__file__}, not from {src}")
    return cli


# Runs in a fresh interpreter: the import and the instances a user's first
# command would pay for, timed from inside so interpreter start-up is left out.
SET_UP = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import fibretransport.cli
from fibretransport.instances import make_instance
for name in sys.argv[2:]:
    make_instance(name)
print(time.perf_counter() - started)
"""


def set_up(instances, probe: SpeedProbe) -> tuple[float, list[float]]:
    """Time one set-up in a child process, which is waited for.

    Returns its time and the probe times taken just before and after it.
    """
    first = len(probe.samples)
    for _ in range(SETUP_PROBES):
        probe.sample()
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SET_UP, str(ROOT / "src"), *instances],
        capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        fail(f"set-up exited with {proc.returncode}: {proc.stderr.strip()}")
    for _ in range(SETUP_PROBES):
        probe.sample()
    return float(proc.stdout), [s for _, s in probe.samples[first:]]


def run_passes(workload, cli, seed: int, scratch: Path, seconds: float,
               minimum: int, within=workloads.untraced, probe=None,
               setups=None):
    """Repeat passes until ``seconds`` have gone by and ``minimum`` ran.

    With a ``probe``, it samples the CPU speed through every pass, and
    ``SETUPS_PER_PASS`` set-ups are timed before each pass and appended to
    ``setups``, so that they sample the whole run.
    """
    results = []
    started = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - started < seconds:
        if probe is not None:
            setups += [set_up(workload.instances, probe)
                       for _ in range(SETUPS_PER_PASS)]
        out = scratch / "pass"
        out.mkdir()
        if probe is not None:
            probe.start()
        try:
            result = within("pass", {"workload": workload.name},
                            workload.run_pass, cli, seed, out, within)
        finally:
            if probe is not None:
                probe.stop()
        workloads.fingerprint(out, result)
        results.append(result)
        shutil.rmtree(out)
    return results


def compare_reports(reference, results) -> None:
    """Reports are byte-stable: every pass must reproduce the first."""
    for r in results:
        for rel in sorted(reference.digests.keys() | r.digests.keys()):
            if r.digests.get(rel) != reference.digests.get(rel):
                r.fail(1, f"report {rel} differs from the first pass")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    cli = import_cli()
    probe = SpeedProbe()
    setups = []

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        missing = workloads.oracle_self_test(cli, scratch)
        if missing:
            fail("oracle self-test: " + "; ".join(missing))
        print("oracle self-test: counterexample:nonlocal scored as honest "
              "counts failed operations")
        shutil.rmtree(scratch)
        scratch.mkdir()

        results = run_passes(workload, cli, seed, scratch, seconds, MIN_PASSES,
                             probe=probe, setups=setups)
        traced = []
        if trace:
            tracers = [Tracer(uuid.uuid4().hex) for _ in range(2)]
            for tracer in tracers:
                tracer.install()
                try:
                    traced += run_passes(workload, cli, seed, scratch, 0.0, 1,
                                         tracer.within)
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = results + traced
    compare_reports(results[0], everything)
    attempted = sum(r.ops for r in everything)
    failed = sum(r.failed for r in everything)
    for problem in dict.fromkeys(p for r in everything for p in r.problems):
        print(f"failed: {problem}", file=sys.stderr)

    fingerprint = workloads.digest_of(results[0].digests)
    print(f"fingerprint {name} seed={seed} sha256={fingerprint} "
          f"files={len(results[0].digests)}")
    (OUT / f"reports-{name}-seed{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "sha256": fingerprint,
         "files": results[0].digests}, indent=2, sort_keys=True) + "\n")

    values = {
        "setup_s": statistics.median(
            seconds * REFERENCE_PROBE_S / statistics.fmean(near)
            for seconds, near in setups),
        "wall_s": statistics.median(
            probe.scaled(r.started, r.started + r.wall_s) for r in results),
        "time_to_accuracy_s": statistics.median(
            probe.scaled(r.started, r.started + r.accuracy_s)
            for r in results),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"passes {len(results)}  set-ups {len(setups)}  "
          f"ops {attempted} count  ops_failed {failed} count")
    unscaled = statistics.median(probe.unprobed(r.started, r.started + r.wall_s)
                                 for r in results)
    print(f"not metrics: unscaled median pass {unscaled:.6g} s, "
          f"unscaled median set-up {statistics.median(s for s, _ in setups):.6g}"
          f" s, fastest probe {probe.fastest() * 1e3:.4g} ms of "
          f"{len(probe.samples)}")
    for m in metrics.END_TO_END:
        print(f"{m.name} {values[m.name]:.6g} {m.unit}")
    correct = failed == 0
    table = metrics.END_TO_END
    if trace:
        counts = [t.counts() for t in tracers]
        differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k))
        layers = [t.layer_metrics(workloads.LAW_IDS, r.records, r.report_bytes)
                  for t, r in zip(tracers, traced)]
        differ += [m.name for m in metrics.PER_LAYER if m.unit != "s"
                   and layers[0][m.name] != layers[1][m.name]]
        if differ:
            correct = False
            print("counters differ between two traced passes: "
                  + ", ".join(differ), file=sys.stderr)
        values = {k: (v + layers[1][k]) / 2 if isinstance(v, float) else v
                  for k, v in layers[0].items()}
        values["trace.overhead_s"] = (
            statistics.mean(r.wall_s for r in traced) - unscaled)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            [t.dump() for t in tracers], indent=1) + "\n")
        for m in metrics.PER_LAYER:
            print(f"{m.name} {values[m.name]:.6g} {m.unit}")
        table = metrics.PER_LAYER
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table}}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own single-threaded process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fibretransport").is_dir():
        fail(f"no fibretransport sources under {ROOT / 'src'}")
    # Set-up then always compiles the sources, whatever the environment says
    # about bytecode caches, and the run writes nothing under src/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    check_manifest()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
