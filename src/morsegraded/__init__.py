"""Discrete Morse machinery for divisibility posets of affine semigroups.

Everything runs in exact integer/rational arithmetic.  The package builds
facet-ordered Morse matchings on order complexes of semigroup intervals,
cancels critical cells along certified-unique gradient paths, and
cross-checks the outcome against an independent simplicial homology oracle.
"""

__version__ = "0.1.0"

from .errors import (
    AcyclicityFailure,
    CollectionEnumerationOverflow,
    CrossingViolation,
    InternalInvariantError,
    InvalidBasis,
    MorsegradedError,
    NotComparable,
    ParseError,
    PathCapExceeded,
    UnmatchedUnsaturatedCell,
    ValidationError,
)
from .semigroup import IntervalData, SemigroupPresentation, random_presentation
from .orders import Monomial, TermOrder
from .groebner import (
    Binomial,
    GroebnerBasis,
    default_cap,
    dividing_leading_term,
    groebner_for,
    verify_groebner,
)
from .chains import (
    Facet,
    FacetOrderConfig,
    check_crossing_condition,
    ordered_facets,
    saturated_chains,
)
from .morse import (
    CriticalCell,
    FaceMatching,
    RankInterval,
    build_face_matching,
    direct_interval_system,
    morse_numbers,
    msi_characterization,
    truncate_to_j_intervals,
    verify_acyclic,
)
from .cancellation import (
    CancellationResult,
    GradientPath,
    NonEssentialSet,
    SystemTable,
    cancel_cells,
    cancel_interval,
    check_321_uniqueness,
    enumerate_gradient_paths,
    non_essential_sets,
    survivor_words_by_content,
)
from .homology import (
    BettiTable,
    OrderComplex,
    order_complex,
    reduced_betti,
    smith_normal_form,
    tor_ranks,
    verify_vanishing,
)
from .resolution import ResolutionData, morse_boundary
from .automaton import (
    CommutationClass,
    MorseAutomaton,
    RationalSeries,
    build_degree_d_automaton,
    build_quadratic_automaton,
    commutation_classes,
    rational_series,
)
from .pipeline import full_consistency_suite
from .io import InputDocument, RunConfig, parse_input

__all__ = [name for name in dir() if not name.startswith("_")]
