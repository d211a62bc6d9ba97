"""Boolean function analysis for rotation-symmetric families.

Bit-packed truth tables, the Walsh-Hadamard transform and cryptographic
criteria, fast block-concatenation builders for the degree-2 and degree-3
rotation-symmetric functions, and the exact weight/nonlinearity theory
(the degree-3 recurrence, the degree-2 closed form, generating functions).
These are the names the CLI, its table builds and its benchmark reach.
Packed bytes are the one bit-string form: the builders and their components
return TruthTables.  The paper's bit strings and string operators, the
affine tools, and published forms that only the tests check live with the
tests (tests/oracles.py).

Each name listed below loads its submodule on first use (PEP 562), so
``import rotsym`` does not import numpy: ``rotsym.cli`` can still choose
the BLAS thread count before numpy loads.  Only ``core`` imports numpy;
``builders`` and ``theory`` import ``core`` where they make a table or a
spectrum, so their series and build pieces come without it.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "builders": (
        "OpCounter", "build_f2", "build_f3",
        "f2_block_complements", "f2_component",
        "f3_block_complements_claimed", "f3_component", "family_table",
        "monomial_table_general", "t_chain",
    ),
    "core": (
        "TruthTable", "WalshSpectrum", "WalshSummary",
        "anf_to_truth_table", "is_bent", "is_semi_bent_spectral",
        "nonlinearity", "orbit_summary", "pc_profile", "walsh_summary",
        "walsh_transform",
    ),
    "theory": (
        "builtin_gfs", "conjecture_check", "gf_series",
        "wt_f2_closed", "wt_f3_recurrence",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
