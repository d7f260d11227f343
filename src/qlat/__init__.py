"""Exact computations with q-cut and q-flow lattices.

The toolkit takes an oriented multigraph with a chosen spanning tree (or
directly a signed bipartite graph), builds the associated graded path
algebra data at the Grothendieck-group level, and computes cut/flow
q-lattices, tree-counting polynomials and lattice isomorphisms, each
backed by an independent brute-force oracle at desk scale.
"""

from .laurent import LaurentPoly, QFraction, QTElement, poly_gcd
from .matrices import QMatrix
from .graphs import (OrientedMultigraph, SpanningTree, cycle_space_gf2,
                     enumerate_spanning_trees, fundamental_cut,
                     fundamental_cycle, tree_overlap_counts, validate)
from .bipartite import (SignedBipartiteGraph, b_cut, b_cycle, build_bipartite,
                        classical_gram, dual)
from .algebra import (K0Vector, PathBasisElement, d_matrix,
                      distinguished_classes, euler_form, hom_qtdim, k0_gram,
                      koszul_transport, path_basis, resolve_simple,
                      simple_in_projectives)
from .lattices import (QLattice, SignedPermutation, change_basis, cut_qlattice,
                       decide_iso, flow_qlattice, normalized_det)
from .invariants import (Q2IsoInstance, Q2IsoReport, cut_basis_change,
                         matrix_tree_enum_oracle, q2iso_classes, q2iso_instance,
                         q_matrix_tree, two_iso_search, verify_q2iso_pair)

__version__ = "0.1.0"
