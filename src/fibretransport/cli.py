"""Command-line front end.

Four subcommands:

* ``check``: run law checkers against a preset instance and write one JSON
  report per law.  Exit status 0 when every requested law passes, 1 when any
  fails, 2 on configuration errors.
* ``holonomy``: traverse a closed loop at one or more integrator steps and
  tabulate the rotation angle per step.
* ``lift``: tabulate one lifting along a path.
* ``factorize``: tabulate the canonical factorization along a path and check
  its roundtrip law.

Reports are byte-stable: rerunning with the same instance, seed, and trial
count reproduces identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path as FsPath

from . import factorization as fz
from . import lifting as lf
from .bundles import fibre_elements, label_element, vector_element
from .errors import FibreTransportError
from .instances import (InstanceSpec, holonomy_angle, instance_names,
                        make_instance)
from .laws import LAWS, law_named
from .transport import LawReport, _desc, strict_json

_FLOAT_FMT = "%.17e"


# ---------------------------------------------------------------------------
# Law runners
# ---------------------------------------------------------------------------

def run_law(spec: InstanceSpec, law: str, *, trials: int = 200,
            seed: int = 0) -> LawReport:
    """Run one registry law against an instance."""
    record = law_named(law)
    return record.check(spec.transport, *record.inputs(spec), trials=trials,
                        seed=seed)


def law_filename(law: str) -> str:
    return "law_" + law.replace("/", "+") + ".json"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise FibreTransportError(f"--trials must be at least 1, got {args.trials}")
    spec = make_instance(args.instance, step=args.step)
    if args.laws == "all":
        chosen = list(spec.applicable)
    else:
        chosen = [l.strip() for l in args.laws.split(",") if l.strip()]
        if not chosen:
            raise FibreTransportError(f"--laws names no law: {args.laws!r}")
        if len(set(chosen)) < len(chosen):
            raise FibreTransportError(
                f"--laws names a law more than once: {args.laws!r}")
    # every law runs before any line or file is written, so an unknown id or
    # a configuration error met by a later law leaves nothing behind
    reports = [run_law(spec, law, trials=args.trials, seed=args.seed)
               for law in chosen]
    for law, report in zip(chosen, reports):
        if args.out is not None:
            (args.out / law_filename(law)).write_text(report.to_json())
        status = "PASS" if report.passed else "FAIL"
        print(f"law {law:<14} {status}  max_deviation={report.max_deviation:.6g}"
              f"  tolerance={report.tolerance:.6g}  trials={report.trials}")
    failed = [r.law for r in reports if not r.passed]
    print(f"instance {spec.name}: {len(reports) - len(failed)}/{len(reports)} "
          f"laws passed (seed {args.seed})")
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


def cmd_holonomy(args: argparse.Namespace) -> int:
    try:
        steps = [float(s) for s in args.steps.split(",") if s.strip()]
    except ValueError:
        steps = [math.nan]
    if not steps:
        raise FibreTransportError("--steps needs at least one value")
    if not all(0.0 < h < math.inf for h in steps):
        raise FibreTransportError(f"--steps expects positive numbers separated"
                                  f" by commas, got {args.steps!r}")
    if len(set(steps)) < len(steps):  # 1e-2 and 0.01 are the same step
        raise FibreTransportError(
            f"--steps names a step more than once: {args.steps!r}")
    rows = []
    loop_label = args.loop
    for h in steps:
        spec = make_instance(args.instance, step=h)
        if loop_label is None:
            if not spec.loops:
                raise FibreTransportError(
                    f"instance {spec.name!r} declares no closed loops")
            loop_label = next(iter(spec.loops))
        loop = spec.path_named(loop_label)
        rows.append((h, holonomy_angle(spec.transport, loop, spec.metric)))
    finest = min(rows, key=lambda r: r[0])[1]
    table = [(h, ang, abs(math.remainder(ang - finest, 2 * math.pi)))
             for h, ang in rows]
    if args.fmt == "csv":
        lines = ["step,angle,error_vs_finest"]
        lines += [",".join(_FLOAT_FMT % v for v in row) for row in table]
        text = "\n".join(lines) + "\n"
        _emit(args.out, "holonomy.csv", text)
    else:
        payload = {"instance": args.instance, "loop": loop_label,
                   "rows": [{"step": h, "angle": a, "error_vs_finest": e}
                            for h, a, e in table]}
        _emit(args.out, "holonomy.json", strict_json(payload))
    if args.out is not None:
        for h, a, e in table:
            print(f"step={h:g}  angle={a:+.12f}  error_vs_finest={e:.3e}")
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise FibreTransportError(
            f"--samples must be at least 1, got {args.samples}")
    spec = make_instance(args.instance, step=args.step)
    p = (spec.path_named(args.path_name) if args.path_name
         else spec.law_paths[0])
    grid = p.domain.samples(args.samples)
    s0 = p.domain.lo if args.s0 is None else p.domain.clamp(args.s0)
    s0 = next((t for t in grid if t == s0), s0)  # -0.0 is the grid's 0.0
    element = args.element
    anchor_point = p.at(s0)
    if element is None:
        u = fibre_elements(spec.bundle, anchor_point)[0]
    elif spec.bundle.fibre_kind == "vector":
        try:
            comps = tuple(float(c) for c in element.split(","))
        except ValueError:
            comps = (math.nan,)
        if not all(map(math.isfinite, comps)):
            raise FibreTransportError(
                f"--element expects finite numbers separated by commas, "
                f"got {element!r}")
        u = vector_element(anchor_point, comps)
    else:
        u = label_element(anchor_point, element)
    lifted = lf.lift(spec.transport, p, u, s0)
    params = [s0] + [t for t in grid if t != s0]
    values = [(t, lifted.at(t)) for t in params]

    if args.fmt == "csv":
        if spec.bundle.fibre_kind == "vector":
            lines = ["s,c0,c1"] + [
                (_FLOAT_FMT % t) + "," + ",".join(_FLOAT_FMT % c
                                                  for c in v.vector)
                for t, v in values]
        else:
            lines = ["s,label"] + [(_FLOAT_FMT % t) + "," + v.label
                                   for t, v in values]
        _emit(args.out, "lifting.csv", "\n".join(lines) + "\n")
    else:
        payload = {"instance": args.instance, "path": p.name, "s0": s0,
                   "through": _desc(u),
                   "values": [{"s": t, "value": _desc(v)} for t, v in values]}
        _emit(args.out, "lifting.json", strict_json(payload))
    if args.out is not None:
        print(f"lifting along {p.name!r} anchored at {s0:g} through "
              f"{_desc(u)}: {len(values)} samples")
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    # the registry law whose trial is the canonical family's roundtrip
    law = next(law for law in LAWS if law.build is fz.roundtrip_trial)
    spec = make_instance(args.instance, step=args.step)
    p = (spec.path_named(args.path_name) if args.path_name
         else spec.law_paths[0])
    f = fz.canonical_factorization(spec.transport, p, s0=args.s0,
                                   grid=args.grid)
    _emit(args.out, "factorization.json",
          strict_json(fz.factorization_to_dict(f)))
    report = law.check(spec.transport, f, seed=args.seed)
    if args.out is not None:
        (args.out / law_filename(law.id)).write_text(report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(f"factorization along {p.name!r}: anchor {f.anchor:g}, "
          f"{len(f.grid)} grid points")
    print(f"law {law.id} {status}  max_deviation={report.max_deviation:.6g}"
          f"  tolerance={report.tolerance:.6g}")
    return 0 if report.passed else 1


def _emit(out: FsPath | None, filename: str, text: str) -> None:
    if out is not None:
        (out / filename).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it:
    parsing reads it without changing it."""
    ap = argparse.ArgumentParser(
        prog="fibretransport",
        description="Check transport laws, holonomy, liftings, and "
                    "factorizations of the preset instances.")
    sub = ap.add_subparsers(dest="command", required=True)
    # Each option is declared once; a subcommand takes only those it reads.
    options = {
        "--instance": dict(required=True,
                           help=f"one of: {', '.join(instance_names())}"),
        "--seed": dict(type=int, default=0),
        "--out": dict(type=FsPath, default=None,
                      help="directory for report files (default: stdout)"),
        "--trials": dict(type=int, default=200),
        "--step": dict(type=float, default=None,
                       help="integrator step for numeric instances"),
        "--format": dict(choices=("json", "csv"), default="json", dest="fmt"),
        "--laws": dict(default="all",
                       help="comma-separated law ids, or 'all' for every law "
                            "applicable to the instance"),
        "--loop": dict(default=None, help="name of a declared loop"),
        "--steps": dict(default="1e-3",
                        help="comma-separated integrator steps"),
        "--path": dict(default=None, dest="path_name"),
        "--element": dict(default=None, help="fibre label, or "
                          "comma-separated vector components"),
        "--s0": dict(type=float, default=None),
        "--samples": dict(type=int, default=11),
        "--grid": dict(type=int, default=11),
    }
    for name, run, help_, own in (
            ("check", cmd_check, "run law checkers",
             ("--trials", "--step", "--laws")),
            ("holonomy", cmd_holonomy, "closed-loop rotation angles",
             ("--format", "--loop", "--steps")),
            ("lift", cmd_lift, "tabulate one lifting",
             ("--step", "--format", "--path", "--element", "--s0",
              "--samples")),
            ("factorize", cmd_factorize, "tabulate a canonical factorization",
             ("--step", "--path", "--s0", "--grid"))):
        # without allow_abbrev=False, holonomy would read --step as --steps
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.set_defaults(run=run)
        for opt in ("--instance", "--seed", "--out", *own):
            sp.add_argument(opt, **options[opt])
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:
            try:
                args.out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise FibreTransportError(
                    f"cannot use --out {str(args.out)!r} as a "
                    f"report directory: {exc.strerror}") from None
        return args.run(args)
    except FibreTransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
