"""Exact periodic continued fractions of quadratic surds.

Core pieces: an exact expansion engine for sqrt(d) and general surds, the
convergent/matrix toolkit, a registry of parameterized expansion families
with a brute-force verifier, a palindrome-pattern miner, and a structure
harness for range sweeps (vectorised numpy kernels by default, or the exact
engine with ``analyze --kernel python``).
"""

from .exact import (
    DomainError,
    InternalConsistencyError,
    Rat,
    RationalValueError,
    ResourceLimitError,
    is_square,
    isqrt,
    solve_linear_congruence,
)
from .engine import (
    CentralClass,
    CenterRelation,
    PeriodicCF,
    SurdExpansion,
    SurdState,
    central_class,
    expand_sqrt,
    expand_surd,
    period_length,
)
from .convergents import (
    Convergent,
    QuadSolution,
    convergents_of_word,
    palindrome_b,
    surd_from_periodic_cf,
    word_matrix,
)
from .mat2 import Mat2, mat_pow, odd_quotient_power, pell_power, sqrt3_power
from .chebyshev import (
    Poly,
    cheb_mat_pow,
    cheb_u,
    cheb_u_prime,
    cousin_closed_form,
    cousin_mat_pow,
    eval_poly,
)
from .sequences import (
    LinRecSpec,
    QuadRingElem,
    ab_pair,
    binet_nth,
    interleaved_even_pair,
    linrec_nth,
    odd_multiplier,
    pell_pair,
    sqrt3_pair,
    triple113_pair,
)
from .families import (
    FamilyDescriptor,
    FamilyValidityError,
    VerifyReport,
    instantiate,
    registry,
    verify_family,
)
from .miner import MinedFamilies, MinedFamily, mine, mine_sweep
from .analyzer import StructReport, check_claims, period_stats, sum_two_coprime_squares

__version__ = "0.1.0"
