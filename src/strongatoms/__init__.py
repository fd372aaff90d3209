"""strongatoms: exact factorization-theory toolkit.

Decides which elements of explicitly presented monoids are irreducible,
prime, or absolutely irreducible (strong atoms), and which existence
scenario a structure realizes.  Covers zero-sum monoids over finitely
generated abelian groups, Krull-monoid specifications, numerical monoids,
integer-valued polynomials over the rational integers, and imaginary
quadratic orders.
"""

from .abgroup import (
    INFINITE,
    FinGenAbelianGroup,
    GroupElement,
    abelian_groups_of_order,
    is_z_independent,
    kernel_lattice,
    minimal_nonneg_kernel,
    order,
    positive_kernel_vector,
    smith_normal_form,
)
from .krull import (
    AbsirredSearch,
    AllAbsirredReport,
    BgWitness,
    KrullSpec,
    PowerWitness,
    RepeatedClassWitness,
    ScenarioReport,
    all_irreducibles_absirred,
    angermueller_check,
    brute_force_absirred,
    check_bg_all_absirred,
    classify_scenario,
    exists_absirred_nonprime,
    has_prime_element,
    is_absirred_kernel,
    is_absirred_support,
    repeated_class_witness,
    witness_non_absirred,
)
from .nummon import (
    NmWitness,
    NumericalMonoid,
    nm_atoms,
    nm_factorizations,
    nm_witness_non_absirred,
)
from .ivpoly import (
    RatPoly,
    binomial_basis_coefficients,
    binomial_poly,
    constant_residue_product_witness,
    divides_in_intz,
    fixed_divisor,
    is_integer_valued,
    legendre_vp_factorial,
    rp_membership,
    verify_no_prime_witness,
)
from .quadratic import (
    QuadInt,
    QuadRing,
    canonical_associate,
    elements_of_norm,
    half_factorial_check,
    quad_brute_absirred,
    quad_divides,
    quad_factorizations,
    quad_is_irreducible,
    quad_is_prime_witness,
)
from .zsm import (
    AtomSet,
    ClassSet,
    Sequence,
    elasticity,
    enumerate_atoms,
    factorizations,
    is_minimal_zero_sum,
    length_set,
    length_set_elasticity,
    minimal_zero_sum_vectors,
)

__version__ = "0.1.0"
