"""cox245: exact verification of combinatorial certificates for the
(2,4,5) triangle Coxeter group.

The package decomposes into:

* :mod:`cox245.numberfield` — exact arithmetic in Q(sqrt2, sqrt5);
* :mod:`cox245.coxeter` — the group through its faithful reflection
  representation: canonical words, descents, coset canonicalization;
* :mod:`cox245.complexgraph` — keyed BFS balls of the coset complex, the
  pentagon tiling, the Cayley graph; exact graph distances;
* :mod:`cox245.edgetypes` — canonical invariants of unordered vertex pairs;
* :mod:`cox245.implications` — the 4/5-cycle implication calculus, witness
  search, dihedral clique closures;
* :mod:`cox245.certificates` — the concrete certificate suites (pentagon
  string families, the connecting-cliques list, distance growth, the
  exploratory dual-seed search);
* :mod:`cox245.discs` — triangulated disc enumeration and curvature audits;
* :mod:`cox245.cli` — the command-line runner emitting JSON reports.
"""

__version__ = "0.1.0"

from .numberfield import FieldElement, fe_inv, fe_mul, fe_sign
from .coxeter import (
    CAY,
    D4,
    D8,
    D10,
    GroupElement,
    ParabolicId,
    canonical_word,
    element_of_word,
    identity,
    min_coset_rep,
    min_double_coset_rep,
    parabolic_elements,
    right_descents,
)
from .complexgraph import (
    GraphSlab,
    Vertex,
    build_ball,
    cayley_vertex,
    fix_vertex,
    graph_distance,
    make_vertex,
)
from .edgetypes import EdgeTypeKey, orbit_sample, type_key_cayley, type_key_complex
from .implications import (
    CycleWitness,
    ImplicationState,
    check_elementary,
    dihedral_closure,
    find_witness,
)
from .certificates import (
    StringSpec,
    auto_search_d10,
    family_string,
    trace_path,
    verify_connecting_list,
    verify_d8_chain,
    verify_dihedral_suite,
    verify_family,
    verify_pentagon_suite,
)
from .discs import TriDisc, curvature_profile, enumerate_discs, is_isomorphic
from .reports import Report
