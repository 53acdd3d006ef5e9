"""The package's value types are immutable records built on tuples.

One table covers every record: the checks a record's constructor runs, its
immutability, and equality with hashing.  A record class that is missing
from the table fails ``test_the_table_covers_every_record``.
"""

import importlib
import math
import pkgutil
import re

import pytest

import fibretransport
from fibretransport.bundles import (BasePoint, BundleMetric, FibreBundle,
                                    FibreElement, Section, table_section)
from fibretransport.errors import FibreTransportError
from fibretransport.factorization import Factorization
from fibretransport.instances import InstanceSpec
from fibretransport.laws import Law
from fibretransport.lifting import Lifting
from fibretransport.paths import UNIT, Interval, Path, Reparameterization
from fibretransport.transport import Failure, LawReport, Transport

X = BasePoint("g", node="a")
U = FibreElement(X, label="p")


def _label_p(x):
    return FibreElement(x, label="p")


def _node_jet(s):
    return X, None


def _no_velocity(s):
    return (1.0, s), None


def _chart_point(s):
    return BasePoint("g", coords=(1.0, s)), None


def _identity(*args):
    return args[-1]


GRAPH = FibreBundle("g", nodes=("a",), labels=("p",))
PATH = Path("g", UNIT, _node_jet)
T = Transport("t", GRAPH, _identity)
SEC = Section("alpha", _label_p)

# name: (class, keyword arguments of a valid record, hashable,
#        [(changed arguments, message of the check they trip), ...])
RECORDS = {
    "BasePoint": (BasePoint, dict(space="g", node="a"), True, [
        (dict(node=None), "exactly one of node / coords must be set"),
        (dict(coords=(1.0,)), "exactly one of node / coords must be set"),
    ]),
    "FibreElement": (FibreElement, dict(over=X, label="p"), True, [
        (dict(label=None), "exactly one of label / vector must be set"),
        (dict(vector=(1.0,)), "exactly one of label / vector must be set"),
    ]),
    "Section": (Section, dict(name="alpha", assignment=_label_p), True, []),
    "FibreBundle": (FibreBundle, dict(base_space_id="g", nodes=("a",),
                                      labels=("p",)), True, [
        (dict(nodes=()), "graph base needs nodes"),
        (dict(labels=()), "finite fibre needs labels"),
        (dict(labels=None, sections=(table_section("alpha", "g", {}),)),
         "section 'alpha' undefined at 'a'"),
        (dict(labels=None, sections=()),
         "section fibre needs at least one section"),
        (dict(nodes=None, labels=None, sections=(SEC,)),
         "section fibres are supported over graph bases"),
        (dict(labels=None, sections=(SEC, Section("beta", _label_p))),
         "sections 'alpha' and 'beta' intersect at 'a'"),
    ]),
    "BundleMetric": (BundleMetric, dict(name="m", matrix_at=_identity),
                     True, []),
    "Interval": (Interval, dict(lo=0.0, hi=1.0), True, [
        (dict(lo=math.nan), "interval ends must be finite"),
        (dict(hi=math.inf), "interval ends must be finite"),
        (dict(lo=2.0), "empty interval [2.0, 1.0]"),
    ]),
    "Reparameterization": (Reparameterization, dict(
        source=UNIT, target=Interval(0.0, 2.0), reversing=True, name="r"),
        True, [
        (dict(squared=1), "r: reversing and squared must be bools"),
        (dict(reversing=None), "r: reversing and squared must be bools"),
        (dict(source=Interval(0.5, 0.5)),
         "r: remaps need non-degenerate intervals"),
        (dict(target=Interval(1.0, 1.0)),
         "r: remaps need non-degenerate intervals"),
    ]),
    "Path": (Path, dict(space="g", domain=UNIT, jet=_node_jet,
                        breakpoints=(0.5,), name="p"), True, [
        (dict(jet=_no_velocity), "chart path 'p' needs a velocity"),
        (dict(breakpoints=(1.0,)), "breakpoint 1.0 not interior to the domain"),
        (dict(breakpoints=(0.6, 0.3)), "breakpoints must be sorted"),
    ]),
    "Transport": (Transport, dict(name="t", bundle=GRAPH, apply_fn=_identity,
                                  declared=frozenset({"local"})), True, [
        (dict(declared=frozenset({"fast", "local"})),
         "unknown declared properties: ['fast']"),
    ]),
    # a failure's params are a dict, so it hashes no more than a dict does
    "Failure": (Failure, dict(path="p", params={"s": 0.5}, elements=("p",),
                              deviation=1.0), False, []),
    "LawReport": (LawReport, dict(law="2.2", instance="t", trials=3,
                                  tolerance=0.0, max_deviation=0.0),
                  True, []),
    "Factorization": (Factorization, dict(
        bundle=GRAPH, path=PATH, anchor=0.0,
        grid=(0.0, 1.0), maps=(((1.0,),), ((2.0,),))), True, [
        (dict(grid=(0.0,)), "factorization grid and maps disagree in length"),
        (dict(anchor=0.5), "factorization anchor must lie on its grid"),
        (dict(bundle=FibreBundle("g", nodes=("a",)),
              maps=(((1.0, 0.0), (0.0, 1.0)),
                    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))),
         "a vector family's maps must be 2 x 2"),
    ]),
    "Lifting": (Lifting, dict(path=PATH, anchor=0.0, through=U,
                              value_fn=_identity), True, []),
    "Law": (Law, dict(id="2.2", factor=2.0, applies=_identity,
                      inputs=_identity, build=_identity), True, []),
    # the default loops are a read-only mapping, which does not hash
    "InstanceSpec": (InstanceSpec, dict(name="t", transport=T), False, []),
}

# Rows added after the table was numbered, (name, changed arguments,
# message): they follow it, so its rows keep their ids.
LATER_CHECKS = [
    ("Path", dict(jet=_chart_point), "discrete path 'p' must give node points"),
    ("FibreBundle", dict(sections=(SEC,)),
     "a fibre takes labels or sections, not both"),
]

CHECKS = [(name, changes, message)
          for name, (_, _, _, checks) in RECORDS.items()
          for changes, message in checks] + LATER_CHECKS

# The numbers of rows whose refusals are gone stay unused, so no other row
# changes its id: a bundle's and a path's kinds are derived from their
# fields, so no kind argument is left to refuse or to disagree with them.
RETIRED = {4, 5, 19, 27, 28, 29}
CHECK_IDS = [f"{name}-{i}" for (name, _, _), i in zip(CHECKS, (
    i for i in range(len(CHECKS) + len(RETIRED)) if i not in RETIRED))]


def test_the_table_covers_every_record():
    found = set()
    for info in pkgutil.iter_modules(fibretransport.__path__):
        if info.name == "__main__":     # importing it runs the CLI
            continue
        module = importlib.import_module(f"fibretransport.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, tuple)
                  and obj.__module__ == module.__name__}
    assert found == set(RECORDS)
    assert len(found) == 15


@pytest.mark.parametrize("name, changes, message", CHECKS, ids=CHECK_IDS)
def test_each_constructor_check_fires_with_its_message(name, changes, message):
    cls, fields, _, _ = RECORDS[name]
    with pytest.raises(FibreTransportError, match=f"^{re.escape(message)}$"):
        cls(**{**fields, **changes})


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable(name):
    cls, fields, _, _ = RECORDS[name]
    record = cls(**fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    cls, fields, hashable, _ = RECORDS[name]
    a, b = cls(**fields), cls(**fields)
    assert a == b and a is not b
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_a_record_prints_as_its_fields():
    """Error messages interpolate records, so the text is kept."""
    assert str(X) == "BasePoint(space='g', node='a', coords=None)"
    assert str(UNIT) == "Interval(lo=0.0, hi=1.0)"


def test_equal_remaps_are_the_same_map():
    r1, r2 = (Reparameterization(Interval(0.0, 2.0), UNIT, squared=True)
              for _ in range(2))
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1.coefficients == r2.coefficients == (0.0, 0.0, 0.25)
    assert r1.fwd(1.0) == r2.fwd(1.0) == 0.25


def test_instances_share_one_read_only_empty_loops_mapping():
    a, b = InstanceSpec("a", T), InstanceSpec("b", T)
    assert a.loops is b.loops and dict(a.loops) == {}
    with pytest.raises(TypeError):
        a.loops["octant"] = PATH
