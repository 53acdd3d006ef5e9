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
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from . import factorization as fz
from . import lifting as lf
from .bundles import fibre_at, label_element, vector_element
from .errors import ConfigError, FibreTransportError
from .instances import (InstanceSpec, holonomy_angle, instance_names,
                        make_instance)
from .laws import law_named
from .transport import LawReport, _desc, strict_json

_FLOAT_FMT = "%.17e"


@dataclass(frozen=True)
class RunConfig:
    """Options shared by every subcommand."""

    instance: str
    seed: int = 0
    trials: int = 200
    step: float | None = None
    out: FsPath | None = None
    fmt: str = "json"
    tol_overrides: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Law runners
# ---------------------------------------------------------------------------

def run_law(spec: InstanceSpec, law: str, *, trials: int = 200, seed: int = 0,
            tolerance: float | None = None) -> LawReport:
    """Run one registry law against an instance."""
    return law_named(law).run(spec, trials=trials, seed=seed,
                              tolerance=tolerance)


def law_filename(law: str) -> str:
    return "law_" + law.replace("/", "+") + ".json"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, laws: list[str] | None) -> int:
    spec = make_instance(cfg.instance, step=cfg.step)
    chosen = list(spec.applicable) if not laws else laws
    for law in chosen:  # refuse unknown ids before any report is written
        law_named(law)
    _require_tols_run(cfg, chosen)
    reports = []
    for law in chosen:
        report = run_law(spec, law, trials=cfg.trials, seed=cfg.seed,
                         tolerance=cfg.tol_overrides.get(law))
        reports.append(report)
        if cfg.out is not None:
            (cfg.out / law_filename(law)).write_text(report.to_json())
        status = "PASS" if report.passed else "FAIL"
        print(f"law {law:<14} {status}  max_deviation={report.max_deviation:.6g}"
              f"  tolerance={report.tolerance:.6g}  trials={report.trials}")
    failed = [r.law for r in reports if not r.passed]
    print(f"instance {spec.name}: {len(reports) - len(failed)}/{len(reports)} "
          f"laws passed (seed {cfg.seed})")
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


def cmd_holonomy(cfg: RunConfig, loop_name: str | None, steps: list[float]) -> int:
    _require_tols_run(cfg, [])
    rows = []
    loop_label = loop_name
    for h in steps:
        spec = make_instance(cfg.instance, step=h)
        if loop_label is None:
            if not spec.loops:
                raise ConfigError(
                    f"instance {spec.name!r} declares no closed loops")
            loop_label = next(iter(spec.loops))
        loop = spec.path_named(loop_label)
        rows.append((h, holonomy_angle(spec.transport, loop, spec.metric)))
    finest = min(rows, key=lambda r: r[0])[1]
    table = [(h, ang, abs(ang - finest)) for h, ang in rows]
    if cfg.fmt == "csv":
        lines = ["step,angle,error_vs_finest"]
        lines += [",".join(_FLOAT_FMT % v for v in row) for row in table]
        text = "\n".join(lines) + "\n"
        _emit(cfg, "holonomy.csv", text)
    else:
        payload = {"instance": cfg.instance, "loop": loop_label,
                   "rows": [{"step": h, "angle": a, "error_vs_finest": e}
                            for h, a, e in table]}
        _emit(cfg, "holonomy.json", strict_json(payload))
    if cfg.out is not None:
        for h, a, e in table:
            print(f"step={h:g}  angle={a:+.12f}  error_vs_finest={e:.3e}")
    return 0


def cmd_lift(cfg: RunConfig, path_name: str | None, element: str | None,
             s0: float | None, samples: int) -> int:
    _require_tols_run(cfg, [])
    spec = make_instance(cfg.instance, step=cfg.step)
    p = spec.path_named(path_name) if path_name else spec.law_paths[0]
    if s0 is None:
        s0 = p.domain.lo
    anchor_point = p.at(s0)
    if spec.bundle.fibre_kind == "vector":
        if element is None:
            comps = tuple(1.0 if i == 0 else 0.0
                          for i in range(spec.bundle.dim))
        else:
            comps = tuple(float(c) for c in element.split(","))
        u = vector_element(anchor_point, comps)
    else:
        if element is None:
            element = fibre_at(spec.bundle, anchor_point).labels[0]
        u = label_element(anchor_point, element)
    lifted = lf.lift(spec.transport, p, u, s0)
    params = [s0] + [t for t in p.domain.samples(samples) if t != s0]
    values = [(t, lifted.at(t)) for t in params]

    if cfg.fmt == "csv":
        if spec.bundle.fibre_kind == "vector":
            head = "s," + ",".join(f"c{i}" for i in range(spec.bundle.dim))
            lines = [head] + [
                (_FLOAT_FMT % t) + "," + ",".join(_FLOAT_FMT % c
                                                  for c in v.vector)
                for t, v in values]
        else:
            lines = ["s,label"] + [(_FLOAT_FMT % t) + "," + v.label
                                   for t, v in values]
        _emit(cfg, "lifting.csv", "\n".join(lines) + "\n")
    else:
        payload = {"instance": cfg.instance, "path": p.name, "s0": s0,
                   "through": _desc(u),
                   "values": [{"s": t, "value": _desc(v)} for t, v in values]}
        _emit(cfg, "lifting.json", strict_json(payload))
    if cfg.out is not None:
        print(f"lifting along {p.name!r} anchored at {s0:g} through "
              f"{_desc(u)}: {len(values)} samples")
    return 0


def cmd_factorize(cfg: RunConfig, path_name: str | None, s0: float | None,
                  grid: int) -> int:
    _require_tols_run(cfg, ["3.6-roundtrip"])
    spec = make_instance(cfg.instance, step=cfg.step)
    p = spec.path_named(path_name) if path_name else spec.law_paths[0]
    f = fz.canonical_factorization(spec.transport, p, s0=s0, grid=grid)
    _emit(cfg, "factorization.json",
          strict_json(fz.factorization_to_dict(f)))
    report = fz.check_factorization_roundtrip(
        spec.transport, p, s0=s0, grid=grid, seed=cfg.seed,
        tolerance=cfg.tol_overrides.get("3.6-roundtrip"))
    if cfg.out is not None:
        (cfg.out / law_filename("3.6-roundtrip")).write_text(report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(f"factorization along {p.name!r}: anchor {f.anchor:g}, "
          f"{len(f.grid)} grid points")
    print(f"law 3.6-roundtrip {status}  max_deviation={report.max_deviation:.6g}"
          f"  tolerance={report.tolerance:.6g}")
    return 0 if report.passed else 1


def _emit(cfg: RunConfig, filename: str, text: str) -> None:
    if cfg.out is not None:
        (cfg.out / filename).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fibretransport",
        description="Check transport laws, holonomy, liftings, and "
                    "factorizations of the preset instances.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--instance", required=True,
                        help=f"one of: {', '.join(instance_names())}")
        sp.add_argument("--seed", type=int, default=None,
                        help="default: $FT_DEFAULT_SEED, or 0")
        sp.add_argument("--trials", type=int, default=200)
        sp.add_argument("--step", type=float, default=None,
                        help="integrator step for numeric instances")
        sp.add_argument("--out", type=FsPath, default=None,
                        help="directory for report files (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="fmt")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="LAW=VALUE",
                        help="override the tolerance of one law; repeatable")

    sp = sub.add_parser("check", help="run law checkers")
    common(sp)
    sp.add_argument("--laws", default="all",
                    help="comma-separated law ids, or 'all' for every law "
                         "applicable to the instance")

    sp = sub.add_parser("holonomy", help="closed-loop rotation angles")
    common(sp)
    sp.add_argument("--loop", default=None, help="name of a declared loop")
    sp.add_argument("--steps", default="1e-3",
                    help="comma-separated integrator steps")

    sp = sub.add_parser("lift", help="tabulate one lifting")
    common(sp)
    sp.add_argument("--path", default=None, dest="path_name")
    sp.add_argument("--element", default=None,
                    help="fibre label, or comma-separated vector components")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--samples", type=int, default=11)

    sp = sub.add_parser("factorize", help="tabulate a canonical factorization")
    common(sp)
    sp.add_argument("--path", default=None, dest="path_name")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--grid", type=int, default=11)
    return ap


def _parse_tols(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        law, sep, value = pair.partition("=")
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not sep or not 0.0 <= tol < math.inf:
            raise ConfigError(f"--tol expects LAW=VALUE with a finite, "
                              f"nonnegative value, got {pair!r}")
        out[law.strip()] = tol
    return out


def _require_tols_run(cfg: RunConfig, laws: list[str]) -> None:
    """Refuse --tol overrides that would silently go unused."""
    unused = sorted(set(cfg.tol_overrides) - set(laws))
    if unused:
        raise ConfigError(f"--tol names laws this run does not execute: "
                          f"{', '.join(unused)}")


def _default_seed() -> int:
    text = os.environ.get("FT_DEFAULT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"FT_DEFAULT_SEED must be an integer, "
                          f"got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        cfg = RunConfig(instance=args.instance,
                        seed=_default_seed() if args.seed is None else args.seed,
                        trials=args.trials, step=args.step, out=args.out,
                        fmt=args.fmt, tol_overrides=_parse_tols(args.tol))
        if cfg.out is not None:
            try:
                cfg.out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot use --out {str(cfg.out)!r} as a "
                                  f"report directory: {exc.strerror}") from None
        if args.command == "check":
            laws = None if args.laws == "all" else [
                l.strip() for l in args.laws.split(",") if l.strip()]
            return cmd_check(cfg, laws)
        if args.command == "holonomy":
            steps = [float(s) for s in args.steps.split(",") if s.strip()]
            if not steps:
                raise ConfigError("--steps needs at least one value")
            return cmd_holonomy(cfg, args.loop, steps)
        if args.command == "lift":
            return cmd_lift(cfg, args.path_name, args.element, args.s0,
                            args.samples)
        if args.command == "factorize":
            return cmd_factorize(cfg, args.path_name, args.s0, args.grid)
        raise AssertionError(args.command)
    except FibreTransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
