"""Exact decomposition of tensor products of restricted simple SL3 modules
for primes p >= 5, with the supporting alcove geometry, character algebra,
facet-indexed structure data, and a quotient path-algebra engine."""

from .alcoves import canonical_rep, classify, is_restricted, linked_weight, sigma
from .decompose import (
    Decomposition,
    IntegrityError,
    Summand,
    decompose,
    sweep,
    tensor_char,
    verify,
)
from .modchar import (
    from_simple_basis,
    m_char,
    simple_char,
    simple_dim,
    tilting_char,
    tilting_delta_factors,
    to_simple_basis,
    weyl_comp_factors,
)
from .structures import delta_factors, diagram
from .weights import (
    Weight,
    dim_weyl,
    dominance_leq,
    dot_reflect,
    pairings,
    parse_weight,
    tau,
)
from .weylchar import (
    Character,
    lr_tensor,
    mult,
    mult_via_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "Decomposition",
    "IntegrityError",
    "Summand",
    "Weight",
    "canonical_rep",
    "classify",
    "decompose",
    "delta_factors",
    "diagram",
    "dim_weyl",
    "dominance_leq",
    "dot_reflect",
    "from_simple_basis",
    "is_restricted",
    "linked_weight",
    "lr_tensor",
    "m_char",
    "mult",
    "mult_via_monomial",
    "pairings",
    "parse_weight",
    "sigma",
    "simple_char",
    "simple_dim",
    "sweep",
    "tau",
    "tensor_char",
    "tilting_char",
    "tilting_delta_factors",
    "to_simple_basis",
    "verify",
    "weyl_comp_factors",
]
