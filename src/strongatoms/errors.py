"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions incompatible with the ambient group."""


class NotZeroSum(ValueError):
    """The sequence does not sum to zero."""


class BudgetExceeded(RuntimeError):
    """A search exceeded its node budget instead of silently truncating."""


class AtomNotInSet(ValueError):
    """The sequence is not a member of the given atom set."""


class NotMember(ValueError):
    """The integer is not an element of the numerical monoid."""


class NoWitness(ValueError):
    """No witness exists; the structure is factorial."""


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class NotIntegerValued(ValueError):
    """Polynomial argument must be integer-valued."""


class NotPrime(ValueError):
    """Argument must be a prime number."""


class PreconditionFailed(ValueError):
    """A construction hypothesis does not hold; the message names the clause."""


class ZeroOrUnit(ValueError):
    """Element must be a nonzero nonunit."""


class ZeroDivisor(ValueError):
    """Division by the zero element."""
