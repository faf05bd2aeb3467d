"""Finite inverse semigroups, their categories, and Morita equivalence.

The package decides Morita equivalence of finite inverse semigroups four
ways and cross-validates that the answers agree: through equivalence
bisets, through equivalence of Cauchy completions, through closed-action
categories (presheaf comparison), and through joint enlargements of the
associated ordered groupoids.
"""

from .errors import MoritaError
from .semigroups import (
    FiniteSemigroup,
    InverseSemigroup,
    as_inverse,
    brandt,
    chain_semilattice,
    cyclic_group,
    group_with_zero,
    idempotents,
    is_locally_E_unitary,
    is_semigroup_enlargement,
    local_unit_flags,
    symmetric_inverse_monoid,
)
from .categories import (
    C_of,
    FiniteCategory,
    Functor,
    L_of,
    categories_isomorphic,
    cauchy_vs_span,
    check_morita_context,
    check_weak_equivalence,
    idempotents_split,
    is_bipartite,
    is_left_cancellative,
    is_right_cancellative,
    pullback,
    span_category,
)
from .actions import (
    EtaleAction,
    I_shriek,
    I_star,
    Presheaf,
    Q_of,
    Q_shriek,
    R_of,
    RightAction,
    U_of,
    check_etale,
    etale_morphism_check,
    etale_of_presheaf,
    indecomposable_projective_check,
    is_closed,
    is_unitary,
    munn_action,
    presheaf_of_etale,
    principal_action,
    tensor_with_S,
    unit_iso_check,
    unit_iso_checks,
)
from .groupoids import (
    InverseSemigroupoid,
    OrderedFunctor,
    OrderedGroupoid,
    C_of_groupoid,
    L_of_groupoid,
    inductive_groupoid_of,
    is_enlargement,
    is_local_isomorphism,
    is_principally_inductive,
    ordered_groupoid_of,
    pseudoproduct,
    restriction,
)
from .bisets import (
    EquivalenceBiset,
    biset_from_ordered_enlargement,
    biset_from_regular_enlargement,
    build_R_semigroupoid,
    build_bipartite_U,
    enlargement_pipeline,
    exhaustive_biset_search,
    morita_equivalent,
    verify_biset,
)
from .formats import (
    load_action,
    load_biset,
    load_semigroup,
    parse_semigroup,
)

__version__ = "0.1.0"
