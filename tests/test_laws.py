"""A law is named once, by its record in the registry (``laws.py``).

The scans read the package's sources with ``ast``: a law id spelled as a
string constant anywhere else, a report built outside the one trial loop,
or a law module that reaches back into the registry would spread one law's
identity over several places again.
"""

import ast
from pathlib import Path

import pytest

import fibretransport
from fibretransport.laws import LAW_ORDER

SOURCES = sorted(Path(fibretransport.__file__).parent.glob("*.py"))


def _scoped_nodes(path):
    """Every node of a module, with the names of the functions and classes
    that enclose it (its own name included, for a definition)."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = (*scope, child.name)
            found.append((child, inner))
            walk(child, inner)

    walk(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def _spelled_ids(path):
    return [(scope, node.value) for node, scope in _scoped_nodes(path)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in LAW_ORDER]


def test_each_law_id_is_spelled_only_in_the_registry():
    elsewhere = []
    for path in SOURCES:
        if path.name == "laws.py":
            assert {law for _, law in _spelled_ids(path)} == set(LAW_ORDER)
            continue
        for scope, law in _spelled_ids(path):
            # the saboteurs' claims are preset data, which
            # tests/test_instances.py checks against LAW_ORDER
            if (path.name == "instances.py"
                    and scope[:1] == ("counterexample_transport",)):
                continue
            elsewhere.append((path.name, ".".join(scope), law))
    assert elsewhere == []


def test_only_run_trials_builds_a_law_report():
    def called(func):
        return getattr(func, "id", None) or getattr(func, "attr", None)

    builders = [(path.name, scope) for path in SOURCES
                for node, scope in _scoped_nodes(path)
                if isinstance(node, ast.Call)
                and called(node.func) == "LawReport"]
    assert builders == [("transport.py", ("run_trials",))]


@pytest.mark.parametrize("module",
                         ["transport.py", "lifting.py", "factorization.py"])
def test_the_trial_modules_do_not_import_the_registry(module):
    path = next(p for p in SOURCES if p.name == module)
    imported = []
    for node, _ in _scoped_nodes(path):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported
                if name == "laws" or name.endswith(".laws")]


# The only functions that may take a tolerance or a seed: every check reads
# its threshold from its law's record and its trial count and seed from
# ``Law.check``, which passes no option on to a builder.
_MAY_TAKE = {
    "tolerance": {"transport.run_trials", "transport.Transport.__new__",
                  "factorization.Factorization.__new__"},
    "seed": {"transport.run_trials", "transport._rng", "laws.Law.check",
             "cli.run_law", "laws.liftings_disjoint_or_equal"},
    "draws": set(),
}


def test_only_the_runner_and_the_records_take_a_tolerance_or_a_seed():
    takers = {name: set() for name in _MAY_TAKE}
    option_bags = []
    for path in SOURCES:
        for node, scope in _scoped_nodes(path):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(arg for arg in (a.vararg, a.kwarg) if arg)]
            where = ".".join((path.stem, *scope))
            for param in params:
                if param.arg in takers:
                    takers[param.arg].add(where)
            if path.name == "laws.py" and a.kwarg:
                option_bags.append(where)
    for name, allowed in _MAY_TAKE.items():
        assert takers[name] <= allowed, name
    assert option_bags == []


def _mentions(node, names):
    return any(isinstance(n, ast.Name) and n.id in names
               or isinstance(n, ast.Attribute) and n.attr in names
               for n in ast.walk(node))


def _called(node, name):
    return (isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None)))


def _path_and_parameter_draws(path):
    """(scope, line) of each place a module picks a law path or remap, or
    draws a uniform parameter on the bounds of a domain or remap source,
    whether by ``uniform`` or by its formula around ``random()``."""
    found = set()
    for node, scope in _scoped_nodes(path):
        picks = (any(_called(node, name) for name in ("_pick", "randrange",
                                                      "choice"))
                 and any(_mentions(a, {"paths", "remaps"})
                         for a in node.args))
        uniform = (_called(node, "uniform")
                   and any(_mentions(a, {"lo", "hi", "domain", "source"})
                           for a in node.args))
        formula = (isinstance(node, ast.BinOp) and _mentions(node, {"lo", "hi"})
                   and any(_called(n, "random") for n in ast.walk(node)))
        if picks or uniform or formula:
            found.add((scope, node.lineno))
    return found


def test_every_path_and_parameter_is_drawn_by_the_draw_routine():
    """A trial body takes its path, parameters and element from
    ``transport._draws``, so the draws of every sampled law are made in
    one place.  Constant ranges, such as law 2.8's coefficients or a
    random gauge's entries, are not draws of a path or a parameter."""
    draws = [(path.name, scope, line) for path in SOURCES
             for scope, line in _path_and_parameter_draws(path)]
    # the scan sees the routine's own pick, remap pick and parameter draw
    assert len([d for d in draws if d[:2] == ("transport.py", ("_draws",
                                                               "draw"))]) == 3
    assert [d for d in draws if d[1][:1] != ("_draws",)] == []
