"""cox245: exact verification of combinatorial certificates for the
(2,4,5) triangle Coxeter group.

Import each name from the submodule that defines it:

* :mod:`cox245.numberfield` — integral arithmetic in Q(sqrt2, sqrt5), with
  exact signs;
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
* :mod:`cox245.cli` — the command-line runner emitting JSON reports;
* :mod:`cox245.exact` — the rational field Q(sqrt2, sqrt5) and its
  generator matrices from the Gram matrix, the independent check of the
  kernel; no suite imports it.
"""

__version__ = "0.1.0"
