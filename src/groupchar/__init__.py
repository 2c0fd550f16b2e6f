"""Exact character tables and structural predicates for small finite groups.

The library computes character tables of groups given by Cayley tables,
with all values as exact cyclotomic integers, and builds on them: Clifford
theory over normal subgroups (invariant characters, orbits, and full
ramification read off G by the Clifford correspondence), distinct-degree and
Camina-pair predicates with a structural classifier, orbit checks for
matrix groups over prime fields, and a fixed verification corpus wired to
a command-line tool.
"""

from .errors import (
    BoundExceeded,
    ContractViolation,
    EvenCharacteristic,
    EvenOrder,
    GroupCharError,
    InvalidAction,
    NoSuitablePrime,
    NotNormal,
    NotPrimePower,
    ParseError,
    SplitFailure,
    TheoremViolation,
    UsageError,
)
from .cyclotomic import Cyclotomic
from .groups import (
    ConjugacyClasses,
    Group,
    QuotientMap,
    Subgroup,
    acts_fixed_point_freely,
    frobenius_complement,
    is_frobenius_with_kernel,
    pprime_elements_fpf,
)
from .chartable import (
    Character,
    CharacterTable,
    compute_table,
    restriction_multiplicities,
    verify_table,
)
from .clifford import (
    abelian_invariant_factors,
    class_fusion,
    invariant_rows,
    quotient_class,
    ramification_report,
    ramification_scan_pair,
)
from .pairs import (
    PairReport,
    camina_pair,
    classify_pair,
    distinct_nonlinear_scan,
    has_property_D,
    irr_over,
    is_camina_centralizer,
    is_camina_vanishing,
    residual_case,
)
from .actions import (
    LinearAction,
    dade_duplicate_check,
    distinct_sizes_scan,
    gl_elements,
    is_transitive_nonzero,
    negation_pairing,
    odd_order_subgroup_actions,
    orbit_sizes,
    regular_orbit_count,
)
from .constructors import (
    abelian,
    agl1,
    alt,
    automorphism_from_images,
    c5c5_c3,
    c7_c3,
    central_product,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    semidirect_product,
    sl23,
    sym,
)
from .groupio import load_group, save_group
from .corpus import CorpusEntry, build_corpus, run_corpus

__version__ = "0.1.0"
