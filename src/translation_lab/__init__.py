"""Exact finite-window verification of partial translation operators.

The package realizes subsets of finitely generated groups by total
predicates, truncates their translation operators to windows with exact
rational entries and clipping bookkeeping, and verifies operator identities,
geometric hypotheses, and the named extension pictures on those windows.
"""

from .groups import (
    AmalgamContext,
    BallCapExceeded,
    FiniteGroupContext,
    FiniteHnnSubgroup,
    FreeAbelianContext,
    FreeGroupContext,
    GroupContext,
    GroupElement,
    HnnContext,
    IntegerScaledSubgroup,
    MalformedWord,
    amalgam_z4_z6,
    baumslag_solitar,
    cyclic_group,
    free_group_as_hnn,
    free_product_of_two_integers,
    integers,
)
from .operators import (
    MatchResult,
    TranslationOperator,
    Window,
    adjoint,
    combine,
    compose,
    compose_chain,
    coset_projection,
    diagonal,
    domain_projection,
    generator_operator,
    guarded_equal,
    identity_operator,
    make_window,
    matrix_rank,
    subtract,
    track_operator,
    zero_operator,
)
from .reports import FALSIFIED, INCONCLUSIVE, VERIFIED, CheckReport, SuiteReport, dumps
from .subsets import (
    SubsetSpec,
    amalgam_subgroup,
    congruence_class,
    coordinate_halfspace,
    coset_cover,
    cyclic_translates,
    difference,
    finite_subgroup,
    make_tree_halfspace,
    natural_numbers,
    positive_cone,
    trivial_subgroup,
    verify_stabilisers,
    whole_group,
    words_not_starting_with,
)
from .tracks import Track, compose_tracks, identity_track, make_track, nonzero_witness, track_of_sequence

__version__ = "0.1.0"
