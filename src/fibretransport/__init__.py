"""Transports along paths in fibre bundles.

The package models bundles over finite graphs and over a round-sphere chart,
moves fibre elements along parameterized paths, and checks the algebraic laws
such transports satisfy: groupoid composition, locality, reparameterization
invariance, linearity, metric consistency, factorization through a reference
parameter, gauge freedom, and the lifting picture with its uniqueness and
cover properties.  Preset instances (permutation, foliation, parallelization,
Levi-Civita on the sphere, and deliberately broken variants) make every law
checkable from the command line.
"""

from .bundles import (BasePoint, BundleMetric, FibreBundle, FibreElement,
                      Section, chart_point, euclidean_metric, evaluate_metric,
                      fibre_labels, graph_point, label_element, rebase,
                      section_through, table_section, vector_element)
from .errors import FibreTransportError
from .factorization import (Factorization, apply_gauge,
                            canonical_factorization, factorization_to_dict,
                            gauge_between, transport_from_factorization)
from .instances import (InstanceSpec, holonomy_angle, instance_names,
                        linear_ode_transport, loop_matrix, make_instance,
                        permutation_transport, counterexample_transport,
                        foliation_transport, parallelization_transport)
from .laws import (LAW_ORDER, LAWS, Law, is_transported_section, law_named,
                   liftings_disjoint_or_equal, transport_from_lifting)
from .lifting import Lifting, lift, occurrence_set, propagate_section
from .paths import (Interval, Path, Reparameterization, affine_remap,
                    canonical_reversal, concatenate, piecewise_path,
                    reparameterize, restrict, reverse, square_remap)
from .transport import LawReport, Transport, inverse_transport, transport

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
