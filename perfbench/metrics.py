"""The benchmark's metrics: names, units, layers, and what each should move.

``BENCHMARK.json`` at the repository root lists the same names; ``run.py``
refuses to run when the two disagree, so this table is the one place that
says what a metric means.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import LAW_IDS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str        # the end-to-end metric this one should move
    on: str           # the workload(s) where it should move
    meaning: str
    bound: float | None = None   # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", "end-to-end", "-", "all workloads",
           "import fibretransport plus make_instance for every instance the "
           "workload uses, in a fresh interpreter, at the reference CPU "
           "speed (speed.py); median of three set-ups before every pass",
           0.25),
    Metric("wall_s", "s", "lower", "end-to-end", "-", "all workloads",
           "first CLI call to last return of one pass (complete verdict, or "
           "end of the ladder), at the reference CPU speed; median over the "
           "passes of a run", 0.25),
    Metric("time_to_accuracy_s", "s", "lower", "end-to-end", "-",
           "holonomy-ladder; equals wall_s on the check workloads",
           "time until the answer meets its accuracy target: every loop "
           "within 1e-12 of its exact angle on holonomy-ladder, the complete "
           "verdict on a check workload; at the reference CPU speed, "
           "median over passes", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", "-", "all workloads",
           "ru_maxrss of the single process that ran the workload", 0.1),
)


def _law_metric(law: str) -> Metric:
    return Metric(f"cli.law.{law.replace('/', '-')}.s", "s", "lower", "cli",
                  "wall_s", "sphere-laws",
                  f"inclusive time of law {law}, summed over the run_law "
                  f"spans of one pass")


PER_LAYER = (
    Metric("cli.run_law.s", "s", "lower", "cli", "wall_s", "graph-laws",
           "self time of cli.run_law (dispatch outside every traced callee)"),
    *(_law_metric(law) for law in LAW_IDS),
    Metric("cli.to_json.s", "s", "lower", "cli", "wall_s", "graph-laws",
           "self time of LawReport.to_json"),
    Metric("cli.report.bytes", "bytes", "lower", "cli", "wall_s",
           "graph-laws", "bytes of the report files --out received"),
    Metric("transport.calls", "count", "lower", "transport", "wall_s",
           "graph-laws", "calls of transport(), through any module"),
    Metric("transport.records", "count", "higher", "transport", "wall_s",
           "graph-laws", "sum of the trials fields of the law reports"),
    Metric("transport.s", "s", "lower", "transport", "wall_s", "graph-laws",
           "inclusive time in transport(), outermost calls only"),
    Metric("transport.apply_self.s", "s", "lower", "transport", "wall_s",
           "graph-laws", "self time of transport(), apply_fn body included"),
    Metric("transport.checker_self.s", "s", "lower", "transport", "wall_s",
           "graph-laws", "run_law time spent outside transport()"),
    Metric("integrate.flows", "count", "lower", "integrate",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "calls of rk4_linear_flow; zero on graph-laws"),
    Metric("integrate.coeff_evals", "count", "lower", "integrate",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "calls of the coefficient callable passed to rk4_linear_flow"),
    Metric("integrate.span", "param", "lower", "integrate",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "sum of |t - s| over the flows integrated"),
    Metric("integrate.flow_self.s", "s", "lower", "integrate",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "self time of rk4_linear_flow: the RK4 arithmetic"),
    Metric("integrate.coeff.s", "s", "lower", "integrate",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "inclusive time of the coefficient callbacks"),
    Metric("sphere.coefficient_matrix.calls", "count", "lower", "sphere",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "calls of sphere.coefficient_matrix"),
    Metric("sphere.coefficient_matrix.s", "s", "lower", "sphere",
           "wall_s, time_to_accuracy_s", "sphere-laws, holonomy-ladder",
           "self time of sphere.coefficient_matrix"),
    Metric("paths.at.calls", "count", "lower", "paths", "wall_s",
           "sphere-laws", "calls of Path.at, nested calls of derived paths "
           "included"),
    Metric("paths.at.s", "s", "lower", "paths", "wall_s", "sphere-laws",
           "self time of Path.at"),
    Metric("paths.velocity.calls", "count", "lower", "paths", "wall_s",
           "sphere-laws", "calls of Path.velocity"),
    Metric("paths.velocity.s", "s", "lower", "paths", "wall_s",
           "sphere-laws", "self time of Path.velocity"),
    Metric("paths.derived.calls", "count", "lower", "paths", "wall_s",
           "graph-laws", "calls of restrict, reparameterize, reverse and "
           "concatenate"),
    Metric("paths.node_sequence.calls", "count", "lower", "paths", "wall_s",
           "graph-laws", "calls of node_sequence"),
    Metric("paths.node_sequence.s", "s", "lower", "paths", "wall_s",
           "graph-laws", "self time of node_sequence"),
    Metric("lifting.lift.calls", "count", "lower", "lifting", "wall_s",
           "sphere-laws (law 4.6), graph-laws", "calls of lifting.lift"),
    Metric("lifting.at.calls", "count", "lower", "lifting", "wall_s",
           "sphere-laws (law 4.6), graph-laws", "calls of Lifting.at"),
    Metric("lifting.at.s", "s", "lower", "lifting", "wall_s",
           "sphere-laws (law 4.6), graph-laws",
           "inclusive time of Lifting.at"),
    Metric("factorization.canonical.calls", "count", "lower",
           "factorization", "wall_s",
           "sphere-laws (laws 3.6-roundtrip, 3.11/3.12)",
           "calls of canonical_factorization"),
    Metric("factorization.canonical.s", "s", "lower", "factorization",
           "wall_s", "sphere-laws (laws 3.6-roundtrip, 3.11/3.12)",
           "inclusive time of canonical_factorization"),
    Metric("factorization.gauge_between.s", "s", "lower", "factorization",
           "wall_s", "sphere-laws (laws 3.6-roundtrip, 3.11/3.12)",
           "self time of gauge_between"),
    Metric("instances.make_instance.s", "s", "lower", "instances",
           "setup_s", "all workloads",
           "self time of make_instance inside the CLI calls"),
    Metric("instances.holonomy_angle.calls", "count", "lower", "instances",
           "time_to_accuracy_s", "holonomy-ladder",
           "calls of holonomy_angle"),
    Metric("instances.holonomy_angle.s", "s", "lower", "instances",
           "time_to_accuracy_s", "holonomy-ladder",
           "inclusive time of holonomy_angle"),
    Metric("bundles.element_deviation.calls", "count", "lower", "bundles",
           "wall_s", "graph-laws", "calls of element_deviation"),
    Metric("trace.overhead_s", "s", "lower", "trace", "-", "all workloads",
           "mean traced pass minus median untraced pass, both unscaled"),
)
