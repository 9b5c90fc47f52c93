"""BCH codes of lengths (q^m-1)/(q+1) and (q^m-1)/(q-1) and their duals.

Exact finite-field towers, q-cyclotomic coset machinery with closed-form
largest-leader values, defining sets and dual defining sets, the
dually-BCH decision, true minimum distances by exhaustive enumeration,
and a registry of claims checked against brute-force oracles.
"""

from .bch import (
    BchCode,
    CyclicCode,
    DefiningSet,
    DuallyBchResult,
    Recognition,
    bch_bound,
    bch_code,
    build_family_code,
    defining_set,
    dual_code,
    dual_defining_set,
    dual_generator,
    dually_bch_sweep,
    generator_polynomial,
    i_of_delta,
    i_of_delta_sweep,
    is_dually_bch,
    recognize_bch,
)
from .cosets import (
    FAMILIES,
    MINUS,
    PLUS,
    CyclotomicCoset,
    ThetaDigits,
    coset_leaders,
    cyclotomic_coset,
    delta1_closed_form,
    delta1_coset_size_closed_form,
    family_length,
    is_coset_leader,
    largest_leaders_qm1,
    leader_map,
    lift_correspondence_check,
    second_largest_m4_plus,
    theta_digits,
    top_k_leaders,
)
from .distance import (
    DEFAULT_BUDGET,
    DistanceResult,
    WeightEnumerator,
    dual_bound_closed_form,
    effective_budget,
    macwilliams_transform,
    min_distance_enumerate,
    weight_enumerator,
)
from .gf import (
    FieldTower,
    Polynomial,
    build_tower,
    lift_to_tower,
    minimal_polynomial,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_lcm,
    poly_mod,
    poly_mul,
    prime_power,
    tower_for,
    xn_minus_one,
    xn_minus_one_over,
)
from .verify import Claim, ClaimReport, list_claims, verify_all, verify_claim

__version__ = "0.1.0"
