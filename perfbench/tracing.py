"""Per-layer tracing, installed from outside the package.

Each traced function is replaced, by attribute, in every loaded
``fibretransport`` module that binds the same function object, so every
caller's lookup reaches the wrapper (``transport`` is bound in four modules,
``rk4_linear_flow`` is called through ``instances``).  Methods are replaced
on their class.  Everything is restored afterwards.

Two kinds of record are kept.  Fine-grained calls (``Path.at``, coefficient
callbacks, ...) run about a million times per pass, so they are only
aggregated by (name, caller name) as a count, an inclusive time and a self
time.  Whole spans (name, start, end, parent span, run id) are kept only at
coarse boundaries: each CLI call, each ``run_law`` and each ladder rung.
"""

from __future__ import annotations

import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.stack: list[list] = []          # open calls: [name, child time]
        self.agg: dict[tuple[str, str], list] = {}   # -> [count, incl, self]
        self.outer: dict[str, float] = {}    # inclusive, outermost calls only
        self.depth: dict[str, int] = {}
        self.span_total = 0.0                # integrate.span
        self.spans: list[dict] = []
        self.open_spans: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call is aggregated under (name, caller)."""
        stack, agg, outer, depth = self.stack, self.agg, self.outer, self.depth

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                depth[name] = level
                if parent is not None:
                    parent[1] += dur
                key = (name, parent[0] if parent is not None else "")
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if level == 0:
                    outer[name] = outer.get(name, 0.0) + dur

        return traced

    def span(self, name: str, fn, attrs):
        """Wrap ``fn`` as a whole span as well as an aggregated call;
        ``attrs(*args)`` gives the span's extra fields."""
        inner = self.timed(name, fn)

        def spanned(*args, **kwargs):
            return self.within(name, attrs(*args), inner, *args, **kwargs)

        return spanned

    def within(self, name: str, attrs: dict, fn, *args, **kwargs):
        """Run ``fn`` inside a whole span; the span also records how long
        the outermost ``transport`` calls inside it took."""
        rec = {"id": len(self.spans),
               "parent": self.open_spans[-1] if self.open_spans else None,
               "name": name, "run": self.run_id, **attrs}
        self.spans.append(rec)
        self.open_spans.append(rec["id"])
        before = self.outer.get("transport", 0.0)
        rec["start"] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = _clock()
            rec["transport_s"] = self.outer.get("transport", 0.0) - before
            self.open_spans.pop()

    # -- installation ------------------------------------------------------

    def _replace_function(self, module: str, attr: str, make) -> None:
        orig = getattr(sys.modules[module], attr)
        wrapped = make(orig)
        for mod in _package_modules():
            if mod.__dict__.get(attr) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def _replace_method(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self.timed(name, orig))

    def install(self) -> None:
        fn = self._replace_function
        fn("fibretransport.cli", "main", lambda f: self.span(
            "cli.main", f, lambda argv: {"command": argv[0],
                                         "instance": argv[2]}))
        fn("fibretransport.cli", "run_law", lambda f: self.span(
            "cli.run_law", f, lambda spec, law: {"law": law}))
        for module, attr, name in (
                ("fibretransport.instances", "make_instance",
                 "instances.make_instance"),
                ("fibretransport.instances", "holonomy_angle",
                 "instances.holonomy_angle"),
                ("fibretransport.transport", "transport", "transport"),
                ("fibretransport.sphere", "coefficient_matrix",
                 "sphere.coefficient_matrix"),
                ("fibretransport.paths", "restrict", "paths.restrict"),
                ("fibretransport.paths", "reparameterize",
                 "paths.reparameterize"),
                ("fibretransport.paths", "reverse", "paths.reverse"),
                ("fibretransport.paths", "concatenate", "paths.concatenate"),
                ("fibretransport.paths", "node_sequence",
                 "paths.node_sequence"),
                ("fibretransport.lifting", "lift", "lifting.lift"),
                ("fibretransport.factorization", "canonical_factorization",
                 "factorization.canonical"),
                ("fibretransport.factorization", "gauge_between",
                 "factorization.gauge_between"),
                ("fibretransport.bundles", "element_deviation",
                 "bundles.element_deviation")):
            fn(module, attr, lambda f, name=name: self.timed(name, f))
        fn("fibretransport.integrate", "rk4_linear_flow", self._flow)
        mods = sys.modules
        self._replace_method(mods["fibretransport.paths"].Path, "at",
                             "paths.at")
        self._replace_method(mods["fibretransport.paths"].Path, "velocity",
                             "paths.velocity")
        self._replace_method(mods["fibretransport.lifting"].Lifting, "at",
                             "lifting.at")
        self._replace_method(mods["fibretransport.transport"].LawReport,
                             "to_json", "cli.to_json")

    def _flow(self, orig):
        timed = self.timed("integrate.flow", orig)

        def flow(coeff, s, t, *rest, **kwargs):
            self.span_total += abs(t - s)
            return timed(self.timed("integrate.coeff", coeff), s, t,
                         *rest, **kwargs)

        return flow

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.agg.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum((rec[2] for (n, _), rec in self.agg.items() if n == name), 0.0)

    def counts(self) -> dict[str, int]:
        """Every aggregated call count, keyed 'name<-caller'."""
        return {f"{n}<-{p}": rec[0] for (n, p), rec in sorted(self.agg.items())}

    def layer_metrics(self, law_ids, records: int, report_bytes: int
                      ) -> dict[str, float]:
        law_s = dict.fromkeys(law_ids, 0.0)
        checker = 0.0
        for rec in self.spans:
            if rec["name"] == "cli.run_law":
                dur = rec["end"] - rec["start"]
                law_s[rec["law"]] = law_s.get(rec["law"], 0.0) + dur
                checker += dur - rec["transport_s"]
        out = {"cli.run_law.s": self.self_time("cli.run_law")}
        out.update({f"cli.law.{law.replace('/', '-')}.s": law_s[law]
                    for law in law_ids})
        out.update({
            "cli.to_json.s": self.self_time("cli.to_json"),
            "cli.report.bytes": report_bytes,
            "transport.calls": self.count("transport"),
            "transport.records": records,
            "transport.s": self.outer.get("transport", 0.0),
            "transport.apply_self.s": self.self_time("transport"),
            "transport.checker_self.s": checker,
            "integrate.flows": self.count("integrate.flow"),
            "integrate.coeff_evals": self.count("integrate.coeff"),
            "integrate.span": self.span_total,
            "integrate.flow_self.s": self.self_time("integrate.flow"),
            "integrate.coeff.s": self.outer.get("integrate.coeff", 0.0),
            "sphere.coefficient_matrix.calls":
                self.count("sphere.coefficient_matrix"),
            "sphere.coefficient_matrix.s":
                self.self_time("sphere.coefficient_matrix"),
            "paths.at.calls": self.count("paths.at"),
            "paths.at.s": self.self_time("paths.at"),
            "paths.velocity.calls": self.count("paths.velocity"),
            "paths.velocity.s": self.self_time("paths.velocity"),
            "paths.derived.calls": sum(self.count(f"paths.{f}") for f in (
                "restrict", "reparameterize", "reverse", "concatenate")),
            "paths.node_sequence.calls": self.count("paths.node_sequence"),
            "paths.node_sequence.s": self.self_time("paths.node_sequence"),
            "lifting.lift.calls": self.count("lifting.lift"),
            "lifting.at.calls": self.count("lifting.at"),
            "lifting.at.s": self.outer.get("lifting.at", 0.0),
            "factorization.canonical.calls":
                self.count("factorization.canonical"),
            "factorization.canonical.s":
                self.outer.get("factorization.canonical", 0.0),
            "factorization.gauge_between.s":
                self.self_time("factorization.gauge_between"),
            "instances.make_instance.s":
                self.self_time("instances.make_instance"),
            "instances.holonomy_angle.calls":
                self.count("instances.holonomy_angle"),
            "instances.holonomy_angle.s":
                self.outer.get("instances.holonomy_angle", 0.0),
            "bundles.element_deviation.calls":
                self.count("bundles.element_deviation"),
        })
        return out

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans,
                "calls": [{"name": n, "caller": p, "count": r[0],
                           "inclusive_s": r[1], "self_s": r[2]}
                          for (n, p), r in sorted(self.agg.items())]}


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "fibretransport" or n.startswith("fibretransport.")]
