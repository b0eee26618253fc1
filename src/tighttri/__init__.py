"""Tight triangulations of closed 3-manifolds: verification and construction.

The package decides tightness of a simplicial complex over an exact field
two independent ways (the definitional induced-subcomplex scan and the
polynomial closed-3-manifold criterion), provides the stacked-sphere and
summand-decomposition machinery those decisions rest on, and constructs
tight neighbourly handle quotients from stacked spheres.
"""

from .catalog import (boundary_simplex, builtin, complete_bipartite, complete_graph,
                      cycle_complex, icosahedron, moebius_band_5, projective_plane_6,
                      subdivided_k33_graph, suspension, torus_7)
from .complexes import (Complex, Face, InternalInconsistencyError, MalformedComplexError,
                        PreconditionError, UnknownVertexError, UnsupportedDimensionError, Verdict,
                        connected_sum, is_isomorphic, verify_closed_manifold)
from .construct import (AdmissibilityError, AdmissibleK, Certificate, HandleStep,
                        MalformedCertificateError, TopologyClass, admissible_k,
                        classify_topology, find_admissible_handle,
                        handle_addition, search_tight, stacked_sphere,
                        verify_stacked_certificate)
from .homology import ChainData, betti, chain_data, induced_map_injective, is_orientable
from .linalg import GF2, QQ, FMatrix, FieldSpec
from .planarity import KuratowskiWitness, find_kuratowski_subdivision
from .stacked import (CycleWitness, HypothesisViolationError, SummandList,
                      decompose_ti, induced_cycles, is_locally_stacked,
                      is_stacked_sphere, mod3_obstruction)
from .tightness import (CrossValidation, TightnessReport, cross_validate,
                        is_tight_bruteforce, is_tight_fast_3manifold, is_tight_surface)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "AdmissibleK", "Certificate", "ChainData", "Complex",
    "CrossValidation", "CycleWitness", "FMatrix", "Face", "FieldSpec", "GF2",
    "HandleStep", "HypothesisViolationError", "InternalInconsistencyError",
    "KuratowskiWitness", "MalformedCertificateError", "MalformedComplexError",
    "PreconditionError", "QQ",
    "SummandList", "TightnessReport", "TopologyClass",
    "UnknownVertexError", "UnsupportedDimensionError", "Verdict", "admissible_k",
    "betti", "boundary_simplex", "builtin",
    "chain_data", "classify_topology",
    "complete_bipartite", "complete_graph", "connected_sum", "cross_validate",
    "cycle_complex", "decompose_ti", "find_admissible_handle",
    "find_kuratowski_subdivision", "handle_addition", "icosahedron",
    "induced_cycles", "induced_map_injective", "is_isomorphic", "is_locally_stacked",
    "is_orientable", "is_stacked_sphere", "is_tight_bruteforce",
    "is_tight_fast_3manifold", "is_tight_surface", "moebius_band_5",
    "mod3_obstruction", "projective_plane_6", "search_tight",
    "stacked_sphere", "subdivided_k33_graph",
    "suspension", "torus_7", "verify_closed_manifold",
    "verify_stacked_certificate",
]
