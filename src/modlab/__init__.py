"""modlab: a module-theory laboratory over explicit finite rings.

Finite rings and left modules are given by full operation tables; every
structural question (submodule lattices, Hom-sets, socle/radical,
injectivity, preradical values, firstness and primeness of modules, ring
classification) is decided by exhaustive scans at desk scale.
"""

__version__ = "0.1.0"

from .errors import (AxiomViolation, InternalInconsistency, JobParseError,
                     ModlabError, NotFullyInvariant, RingMismatch,
                     SizeCapExceeded)
from .rings import (FiniteRing, cyclic_ring, enumerate_ideals, is_prime_ring,
                    is_simple_ring, matrix_ring, product_ring, quotient_ring,
                    ring_from_tables)
from .modules import (FiniteModule, ModuleMorphism, Submodule,
                      SubmoduleLattice, cogenerates, cyclic_module,
                      direct_sum_module, endomorphism_ring,
                      enumerate_submodules, hom_nonzero_exists, hom_set,
                      is_atom, is_essential, is_injective, is_isomorphic,
                      is_superfluous, module_from_tables, quotient_module,
                      regular_module, simple_modules, structural_summary,
                      submodule, zero_module)
from .preradicals import (Alpha, Beta, Compose, Join, LinearFilter, Meet,
                          Omega, ONE, Preradical, RAD, SOC, Trad, ZERO,
                          check_naturality, compare, idempotent_core_at,
                          product_hom_AB, product_in, property_flags,
                          radical_closure_at, socle_as_join_of_simple_traces)
from .actions import (FiniteBoundedLattice, FinitePoset, PosetAction,
                      interval, is_first, is_prime, module_action_instance,
                      pullback, restrict_action)
from .firstness import (FirstnessReport, class_membership, firstness_report,
                        is_A_first, is_A_fully_first, is_bjkn_prime,
                        is_diuniform, is_prime_module, is_retractable,
                        is_rpid_first)
from .classify import (THEOREM_IDS, RingClassification, TheoremVerdict,
                       Universe, classify_ring, enumerate_lep,
                       generate_universe, verify_theorem)
from .jobs import JobSpec, parse_job, run_job

__all__ = [
    "AxiomViolation", "InternalInconsistency", "JobParseError", "ModlabError",
    "NotFullyInvariant", "RingMismatch", "SizeCapExceeded",
    "FiniteRing", "cyclic_ring", "enumerate_ideals", "is_prime_ring",
    "is_simple_ring", "matrix_ring", "product_ring", "quotient_ring",
    "ring_from_tables",
    "FiniteModule", "ModuleMorphism", "Submodule", "SubmoduleLattice",
    "cogenerates", "cyclic_module", "direct_sum_module", "endomorphism_ring",
    "enumerate_submodules", "hom_nonzero_exists", "hom_set", "is_atom",
    "is_essential", "is_injective", "is_isomorphic", "is_superfluous",
    "module_from_tables", "quotient_module", "regular_module",
    "simple_modules", "structural_summary", "submodule", "zero_module",
    "Alpha", "Beta", "Compose", "Join", "LinearFilter", "Meet", "Omega",
    "ONE", "Preradical", "RAD", "SOC", "Trad", "ZERO", "check_naturality",
    "compare", "idempotent_core_at", "product_hom_AB", "product_in",
    "property_flags", "radical_closure_at", "socle_as_join_of_simple_traces",
    "FiniteBoundedLattice", "FinitePoset", "PosetAction", "interval",
    "is_first", "is_prime", "module_action_instance", "pullback",
    "restrict_action",
    "FirstnessReport", "class_membership", "firstness_report", "is_A_first",
    "is_A_fully_first", "is_bjkn_prime", "is_diuniform", "is_prime_module",
    "is_retractable", "is_rpid_first",
    "THEOREM_IDS", "RingClassification", "TheoremVerdict", "Universe",
    "classify_ring", "enumerate_lep", "generate_universe", "verify_theorem",
    "JobSpec", "parse_job", "run_job",
]
