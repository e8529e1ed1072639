"""Zero-divisor graphs of finite commutative rings with unity.

Build the graph on all ring elements (distinct x, y adjacent iff x*y = 0),
partition it by gcd classes, twins, or automorphism orbits, recognize
threshold graphs with creation-sequence certificates or alternating-4-cycle
counterexamples, and compute exact equitable-quotient spectra.
"""

__version__ = "0.1.0"

from .errors import (
    CompositePrimeError,
    MalformedCode,
    MixedBlock,
    NonMonicModulus,
    NotEquitable,
    NotThresholdError,
    OracleCapExceeded,
    RingSemanticError,
    RingSyntaxError,
    SizeCapExceeded,
    WrongRingKind,
    ZdgError,
)
from .graphs import (
    ClassSkeleton,
    Graph,
    JoinSkeleton,
    Partition,
    build_zero_divisor_graph,
    complete_graph,
    divisor_graph,
    empty_graph,
    gcd_class_partition,
    generalized_join,
    induced_subgraph,
    orbit_block_classification,
    twin_partition,
)
from .orbits import are_isomorphic, aut_orbits, brute_force_orbits
from .ringexpr import parse_ring_spec, render_ring_spec
from .rings import (
    DEFAULT_CAP,
    GF,
    ElementClass,
    FamA,
    FamB,
    FamC,
    FamD,
    MonicQuotient,
    Product,
    Ring,
    RingSpec,
    Zn,
    classify_element,
    euler_phi,
    is_field,
    is_prime,
    is_reduced,
    make_ring,
    spec_size,
)
from .spectral import (
    IntPolynomial,
    QuotientMatrix,
    char_poly,
    eigenvalue_multiplicity,
    equitable_quotient_matrix,
)
from .threshold import (
    AlternatingFourCycle,
    CreationSequence,
    ThresholdResult,
    build_threshold_from_code,
    creation_sequence,
    find_alternating_four_cycle,
    is_threshold,
    run_block_partition,
)
from .verify import ClaimReport, SweepConfig, run_all

__all__ = [name for name in dir() if not name.startswith("_")]
