"""Exact periodic continued fractions of quadratic surds.

Core pieces: an exact expansion engine for sqrt(d) and general surds, the
convergent/matrix toolkit, a registry of parameterized expansion families
with a brute-force verifier, a palindrome-pattern miner, and a structure
harness for range sweeps (vectorised numpy kernels by default, or the exact
engine with ``analyze --kernel python``).

The exported names (``__all__``) resolve lazily (PEP 562): ``import
surdcf`` loads no submodule, and ``surdcf.X`` or ``from surdcf import X``
imports the one module that defines ``X`` on first use.  So code that needs
only the engine never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "exact": ("DomainError InternalConsistencyError Rat RationalValueError ResourceLimitError "
                  "is_square isqrt sum_two_coprime_squares"),
        "engine": "PeriodicCF SurdExpansion SurdState expand_sqrt expand_surd",
        "convergents": ("Convergent QuadSolution convergents_of_word palindrome_b "
                        "surd_from_periodic_cf word_matrix"),
        "mat2": "Mat2 mat_pow odd_quotient_power pell_power sqrt3_power",
        "chebyshev": "Poly cheb_mat_pow cheb_u cheb_u_prime cousin_closed_form cousin_mat_pow eval_poly",
        "sequences": ("LinRecSpec QuadRingElem ab_pair interleaved_even_pair linrec_nth pell_pair "
                      "sqrt3_pair triple113_pair"),
        "families": "FamilyDescriptor FamilyValidityError VerifyReport instantiate registry verify_family",
        "miner": "MinedFamilies MinedFamily mine mine_sweep",
        "analyzer": "StructReport check_claims period_stats",
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # An unknown name raises AttributeError, so ``from surdcf import miner``
    # falls back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
