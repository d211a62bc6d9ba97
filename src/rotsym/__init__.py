"""Boolean function analysis for rotation-symmetric families.

Bit-packed truth tables, the Walsh-Hadamard transform and cryptographic
criteria, fast block-concatenation builders for the degree-2 and degree-3
rotation-symmetric functions, and the exact weight/nonlinearity theory
(recurrences, closed forms, generating functions).
"""

from .builders import (
    BLOCKS,
    BitString,
    OpCounter,
    build_f2,
    build_f3,
    complement,
    complement_first_half,
    component_weights_f3,
    f2_block_complements,
    f2_component,
    f3_block_complements_claimed,
    f3_block_complements_measured,
    f3_component,
    hat,
    monomial_table_general,
    repeat,
    rots_orbit_anf,
    tilde,
)
from .core import (
    AffineTransform,
    AnfPolynomial,
    TruthTable,
    WalshSpectrum,
    anf_to_truth_table,
    apply_affine_transform,
    concatenate,
    is_bent,
    is_semi_bent_spectral,
    nonlinearity,
    pc_profile,
    walsh_transform,
    weight,
)
from .theory import (
    ConjectureRow,
    RationalGF,
    builtin_gfs,
    conjecture_check,
    family_table,
    gf_series,
    nl_f2,
    nl_lower_bound_fk,
    t_chain,
    wt_f2_closed,
    wt_f2_recurrence,
    wt_f3_recurrence,
)

__version__ = "0.1.0"
