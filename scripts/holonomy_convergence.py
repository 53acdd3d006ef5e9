#!/usr/bin/env python3
"""Convergence study: a sphere loop's rotation angle versus integrator step.

The exact angle is the area the loop encloses, mod 2*pi: pi/2 for the
octant (one eighth of the surface), 0 for the equator and pi for
latitude-60.  Prints a CSV table of step, angle, absolute error (mod 2*pi)
and the observed order between consecutive steps.  The integrator is fourth
order, so on the octant the column should hover near 4 until roundoff takes
over; along a latitude every cell is exact and the error is roundoff alone.
An unknown loop, or a step that is malformed or out of range, is refused
with one ``error:`` line and exit status 2.
"""

import argparse
import math
import sys

from fibretransport.errors import FibreTransportError
from fibretransport.instances import holonomy_angle, make_instance, require_step

EXACT = {"octant": math.pi / 2, "equator": 0.0, "latitude-60": math.pi}


def loop_error(angle: float, loop: str) -> float:
    """Distance to the loop's exact angle mod 2*pi."""
    return abs(math.remainder(angle - EXACT[loop], 2.0 * math.pi))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", default="8e-3,4e-3,2e-3,1e-3,5e-4",
                    help="comma-separated integrator steps, large to small")
    ap.add_argument("--loop", default="octant",
                    help=f"one of {', '.join(EXACT)}")
    args = ap.parse_args()

    if args.loop not in EXACT:
        print(f"error: unknown loop {args.loop!r}; known: {', '.join(EXACT)}",
              file=sys.stderr)
        return 2
    try:
        steps = [require_step(float(s)) for s in args.steps.split(",")
                 if s.strip()]
    except (ValueError, FibreTransportError) as exc:
        print(f"error: bad --steps {args.steps!r}: {exc}", file=sys.stderr)
        return 2
    print("step,angle,abs_error,observed_order")
    prev = None
    for h in steps:
        spec = make_instance("sphere-levi-civita", step=h)
        ang = holonomy_angle(spec.transport, spec.path_named(args.loop),
                             spec.metric)
        err = loop_error(ang, args.loop)
        if prev is None or err == 0.0 or prev[1] == 0.0:
            order = ""
        else:
            order = f"{math.log(prev[1] / err) / math.log(prev[0] / h):.2f}"
        print(f"{h:.6e},{ang:.15f},{err:.6e},{order}")
        prev = (h, err)
    return 0


if __name__ == "__main__":
    sys.exit(main())
