"""The three workloads, the CLI arguments they generate, and their oracle.

Every workload drives the program only through ``fibretransport.cli.main``,
called in-process with ``--out`` pointing at a fresh directory.  One pass is
the unit the run repeats: its wall time is measured from the first CLI call
to the last return, and its outputs are scored afterwards, outside that
window.

Oracle: an operation is one law check (check workloads) or one rung of one
loop (holonomy-ladder).  It fails when the call raises, when ``check`` exits
with anything but 0 or 1 (or an exit status that contradicts its reports),
when a report is not strict JSON, when a verdict contradicts the preset
tables below, or when a holonomy angle is non-finite, misses its exact value
at step 1e-3, or converges below the designed order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

# Law ids in registry order, as the program writes them into reports.
LAW_IDS = (
    "2.2", "2.3", "2.4", "2.5/2.7", "2.6", "2.8", "2.9",
    "3.1", "3.2", "3.4", "3.5", "3.6-roundtrip", "3.11/3.12",
    "4.2", "4.4", "4.6", "4.7",
)

SPHERE = "sphere-levi-civita"

# Honest presets pass every law that applies to them.  Kept here rather than
# read from the program, so a change that drops or adds a law shows up as a
# failed operation.
HONEST_LAWS = {
    "perm-c3": ("2.2", "2.3", "2.4", "2.5/2.7", "2.6", "3.1", "3.2", "3.4",
                "3.5", "3.6-roundtrip", "3.11/3.12", "4.2", "4.6", "4.7"),
    "foliation-2sec": ("2.2", "2.3", "2.4", "2.5/2.7", "2.6", "3.1", "3.2",
                       "3.4", "3.5", "3.6-roundtrip", "3.11/3.12", "4.2",
                       "4.4", "4.6", "4.7"),
    "parallelization-flat": ("2.2", "2.3", "2.4", "2.5/2.7", "2.6", "2.8",
                             "3.1", "3.2", "3.4", "3.5", "3.6-roundtrip",
                             "3.11/3.12", "4.2", "4.4", "4.6"),
    SPHERE: ("2.2", "2.3", "2.4", "2.5/2.7", "2.6", "2.8", "2.9", "3.1",
             "3.2", "3.4", "3.5", "3.6-roundtrip", "3.11/3.12", "4.2", "4.6"),
}

# Each saboteur: (the law it violates, the laws it preserves).
COUNTEREXAMPLES = {
    "counterexample:group_breaking":
        ("2.2", ("2.3", "2.5/2.7", "2.6", "2.8", "2.9")),
    "counterexample:nonlocal":
        ("2.5/2.7", ("2.2", "2.3", "2.6", "2.8", "2.9")),
    "counterexample:non_reparam_invariant":
        ("2.6", ("2.2", "2.3", "2.5/2.7", "2.8", "2.9")),
    "counterexample:nonlinear":
        ("2.8", ("2.2", "2.3", "2.5/2.7", "2.6")),
    "counterexample:metric_breaking":
        ("2.9", ("2.2", "2.3", "2.5/2.7", "2.8")),
}


def counterexample_verdicts(preset: str) -> dict[str, bool]:
    violates, preserves = COUNTEREXAMPLES[preset]
    return {violates: False, **{law: True for law in preserves}}


def expected_verdicts(preset: str) -> dict[str, bool]:
    if preset in COUNTEREXAMPLES:
        return counterexample_verdicts(preset)
    return {law: True for law in HONEST_LAWS[preset]}


# Exact holonomy angles of the sphere's loops (compared mod 2*pi).
EXACT_ANGLES = {"octant": math.pi / 2, "equator": 0.0,
                "latitude-60": math.pi}
LADDER_TOP = 8e-3
LADDER_FIXED = 6          # 8e-3 down to 2.5e-4
LADDER_MAX = 10           # extended while accuracy is missing, to 1.5625e-5
ACCURACY = 1e-12          # time_to_accuracy target
REFERENCE_STEP = 1e-3     # angle must be within REFERENCE_TOL here
REFERENCE_TOL = 1e-11
ROUNDOFF_FLOOR = 1e-13    # errors at or below are excluded from the order
MIN_ORDER = 3.5


@dataclass
class PassResult:
    """What one pass measured and what its oracle found."""

    wall_s: float
    accuracy_s: float
    started: float = 0.0      # perf_counter() when the first CLI call began
    ops: int = 0
    failed: int = 0
    records: int = 0
    report_bytes: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


@dataclass
class Call:
    rc: object
    error: str | None
    started: float
    ended: float


def call_cli(cli, argv: list[str]) -> Call:
    """Run ``cli.main(argv)`` with its output captured; never raises."""
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        error = None
    except SystemExit as exc:
        rc, error = exc.code, None
    except Exception as exc:  # an operation that raises is a failed one
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return Call(rc, error, started, time.perf_counter())


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def fingerprint(out: Path, result: PassResult) -> None:
    """Record the sha256 and size of every file a pass wrote under ``out``."""
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        result.digests[path.relative_to(out).as_posix()] = \
            hashlib.sha256(data).hexdigest()
        result.report_bytes += len(data)


def score_check(preset: str, call: Call, out: Path, expected: dict[str, bool],
                result: PassResult) -> None:
    """Score one ``check`` call: one operation per expected law."""
    result.ops += len(expected)
    if call.error is not None or call.rc not in (0, 1):
        result.fail(len(expected), f"{preset}: exit {call.rc!r} {call.error or ''}")
        return
    verdicts = {}
    for path in sorted(out.glob("*")):
        try:
            report = strict_json(path.read_text())
            verdicts[report["law"]] = bool(report["passed"])
            result.records += int(report["trials"])
        except (ValueError, KeyError, TypeError) as exc:
            result.ops += 1
            result.fail(1, f"{preset}/{path.name}: not a strict JSON report "
                           f"({exc})")
    if call.rc != (0 if all(verdicts.values()) else 1):
        result.fail(len(expected), f"{preset}: exit {call.rc} contradicts "
                                   f"the reports")
        return
    for law, passed in expected.items():
        if law not in verdicts:
            result.fail(1, f"{preset}: no report for law {law}")
        elif verdicts[law] != passed:
            result.fail(1, f"{preset}: law {law} "
                           f"{'FAIL' if passed else 'PASS'}, expected "
                           f"{'PASS' if passed else 'FAIL'}")
    for law in verdicts.keys() - expected.keys():
        result.ops += 1
        result.fail(1, f"{preset}: unexpected report for law {law}")


def check_argv(preset: str, trials: int, seed: int, out: Path) -> list[str]:
    return ["check", "--instance", preset, "--trials", str(trials),
            "--seed", str(seed), "--out", str(out)]


def untraced(name: str, attrs: dict, fn, *args):
    """Run ``fn``; stands in for ``Tracer.within`` when nothing is traced."""
    return fn(*args)


class CheckWorkload:
    """``check`` on each preset in turn, every applicable law, one seed."""

    def __init__(self, name: str, instances: tuple[str, ...], trials: int):
        self.name = name
        self.instances = instances
        self.trials = trials

    def run_pass(self, cli, seed: int, out: Path, within=untraced) -> PassResult:
        dirs = [out / preset.replace(":", "-") for preset in self.instances]
        calls = [call_cli(cli, check_argv(preset, self.trials, seed, d))
                 for preset, d in zip(self.instances, dirs)]
        wall = calls[-1].ended - calls[0].started
        result = PassResult(wall_s=wall, accuracy_s=wall,
                            started=calls[0].started)
        for preset, call, d in zip(self.instances, calls, dirs):
            score_check(preset, call, d, expected_verdicts(preset), result)
        return result


def loop_error(angle: float, loop: str) -> float:
    """Distance to the exact angle mod 2*pi; -pi and +pi are one answer."""
    return abs(math.remainder(angle - EXACT_ANGLES[loop], 2.0 * math.pi))


def score_ladder(rungs: list[tuple[float, dict]], result: PassResult) -> int | None:
    """Score a ladder of {loop: angle-or-None}; return the first accurate rung.

    One operation per rung and loop.  An angle of None marks a call that
    already failed.
    """
    accurate = None
    for k, (h, angles) in enumerate(rungs):
        result.ops += len(angles)
        for loop, angle in angles.items():
            if angle is None:
                continue
            if not math.isfinite(angle):
                result.fail(1, f"{loop} at step {h!r}: angle {angle!r}")
                continue
            err = loop_error(angle, loop)
            if math.isclose(h, REFERENCE_STEP) and err > REFERENCE_TOL:
                result.fail(1, f"{loop} at step {h!r}: error {err:.3g} "
                               f"above {REFERENCE_TOL:g}")
                continue
            if k == 0:
                continue
            prev_h, prev = rungs[k - 1][0], rungs[k - 1][1].get(loop)
            if prev is None or not math.isfinite(prev):
                continue
            prev_err = loop_error(prev, loop)
            if prev_err > ROUNDOFF_FLOOR and err > ROUNDOFF_FLOOR:
                order = math.log(prev_err / err) / math.log(prev_h / h)
                if order < MIN_ORDER:
                    result.fail(1, f"{loop} at step {h!r}: observed order "
                                   f"{order:.2f} below {MIN_ORDER}")
        if accurate is None and all_accurate(angles):
            accurate = k
    return accurate


def all_accurate(angles: dict) -> bool:
    """Whether every loop's angle is within the accuracy target."""
    return all(a is not None and math.isfinite(a)
               and loop_error(a, loop) <= ACCURACY for loop, a in angles.items())


def holonomy_argv(loop: str, step: float, seed: int, out: Path) -> list[str]:
    return ["holonomy", "--instance", SPHERE, "--loop", loop,
            "--steps", repr(step), "--seed", str(seed), "--out", str(out)]


def read_angle(call: Call, out: Path, loop: str, step: float,
               result: PassResult) -> float | None:
    if call.error is not None or call.rc != 0:
        result.fail(1, f"{loop} at step {step!r}: exit {call.rc!r} "
                       f"{call.error or ''}")
        return None
    try:
        rows = strict_json((out / "holonomy.json").read_text())["rows"]
        (row,) = rows
        return float(row["angle"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.fail(1, f"{loop} at step {step!r}: bad report ({exc})")
        return None


class LadderWorkload:
    """``holonomy`` on each loop, down a halving step ladder.

    The fixed ladder ends one rung past 5e-4, where every loop first meets
    the accuracy target at commit 9ff3c20.  It extends while any loop still
    misses the target, so a change that loses accuracy pays for the extra
    rungs.
    """

    name = "holonomy-ladder"
    instances = (SPHERE,)

    def run_pass(self, cli, seed: int, out: Path, within=untraced) -> PassResult:
        result = PassResult(0.0, 0.0)
        rungs, calls, accurate = [], [], None
        for k in range(LADDER_MAX):
            if k >= LADDER_FIXED and accurate is not None:
                break
            h = LADDER_TOP / 2 ** k
            dirs = {loop: out / f"{loop}@{h!r}" for loop in EXACT_ANGLES}
            rung = within("ladder.rung", {"step": h}, lambda: {
                loop: call_cli(cli, holonomy_argv(loop, h, seed, d))
                for loop, d in dirs.items()})
            calls.extend(rung.values())
            angles = {loop: read_angle(c, dirs[loop], loop, h, result)
                      for loop, c in rung.items()}
            rungs.append((h, angles))
            if accurate is None and all_accurate(angles):
                accurate = calls[-1].ended
        first = result.started = calls[0].started
        result.wall_s = calls[-1].ended - first
        result.accuracy_s = (accurate or calls[-1].ended) - first
        if score_ladder(rungs, result) is None:
            result.fail(1, f"no rung down to {h!r} brings every loop within "
                           f"{ACCURACY:g}")
        return result


# Trial count of sphere-laws: small enough for three passes in a run, and
# large enough that every law draws from several paths.
SPHERE_TRIALS = 5

WORKLOADS = {
    "sphere-laws": CheckWorkload("sphere-laws", (SPHERE,), SPHERE_TRIALS),
    "graph-laws": CheckWorkload(
        "graph-laws", ("perm-c3", "foliation-2sec", "parallelization-flat",
                       *COUNTEREXAMPLES), 200),
    "holonomy-ladder": LadderWorkload(),
}


def oracle_self_test(cli, out: Path) -> list[str]:
    """Show the oracle can fail; return what did not fail as it should."""
    missing = []
    preset = "counterexample:nonlocal"
    d = out / "self-test"
    call = call_cli(cli, check_argv(preset, 20, 0, d))
    honest = PassResult(0.0, 0.0)
    score_check(preset, call, d, {law: True for law in
                                  counterexample_verdicts(preset)}, honest)
    if honest.failed == 0:
        missing.append(f"{preset} scored as honest gave ops_failed=0")
    right = PassResult(0.0, 0.0)
    score_check(preset, call, d, counterexample_verdicts(preset), right)
    if right.failed != 0:
        missing.append(f"{preset} scored as itself failed: {right.problems}")

    h = [LADDER_TOP / 2 ** k for k in range(5)]
    exact = [{loop: EXACT_ANGLES[loop] + 3e-15 for loop in EXACT_ANGLES}
             for _ in h]
    exact[-1]["latitude-60"] = -math.pi
    cases = {   # made-up ladders: (angles per rung, whether it must fail)
        "exact, with -pi for pi": (exact, False),
        "octant off by 1e-9": (
            [dict(a, octant=a["octant"] + 1e-9) for a in exact], True),
        "first-order convergence": (
            [dict(a, equator=1e-4 * x) for a, x in zip(exact, h)], True),
        "NaN angle": ([dict(a, equator=math.nan) for a in exact], True),
    }
    for what, (angles, must_fail) in cases.items():
        r = PassResult(0.0, 0.0)
        score_ladder(list(zip(h, angles)), r)
        if (r.failed > 0) != must_fail:
            missing.append(f"ladder {what}: ops_failed={r.failed}")
    try:
        strict_json('{"max_deviation": Infinity}')
        missing.append("strict_json accepted Infinity")
    except ValueError:
        pass
    return missing


def digest_of(digests: dict[str, str]) -> str:
    """One sha256 over the sorted (file, sha256) pairs of a pass."""
    lines = "".join(f"{rel} {digest}\n" for rel, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()
