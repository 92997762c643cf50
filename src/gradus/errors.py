"""Exception hierarchy shared by all gradus modules."""


class GradusError(Exception):
    """Base class for all library errors."""


class ValidationError(GradusError):
    """An input fails the ring axioms or a structural precondition."""


class NotCommutative(ValidationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"multiplication table not commutative at basis pair ({i}, {j})")
        self.indices = (i, j)


class NotAssociative(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"multiplication table not associative at basis triple ({i}, {j}, {k})")
        self.indices = (i, j, k)


class BadIdentity(ValidationError):
    def __init__(self, i: int):
        super().__init__(f"declared identity does not fix basis vector {i}")
        self.indices = (i,)


class TorsionQuotient(ValidationError):
    """The quotient by an ideal has additive torsion, so it is not an order."""


class NotReduced(ValidationError):
    """The operation requires a reduced order (zero nilradical)."""


class InfiniteIndex(GradusError):
    """A sublattice sum does not have finite index in the ambient lattice."""


class InfiniteGroup(GradusError):
    """A presented abelian group is infinite (some invariant factor is 0)."""


class EnumerationBudgetExceeded(GradusError):
    """Short-vector enumeration produced more vectors than the configured cap."""


class EscalationNeeded(GradusError):
    """Internal: a numeric verdict cannot be trusted at the working precision.

    `embeddings.escalate` owns the only precision loop: it catches this and
    retries with twice the bits, and converts it into PrecisionExhausted once
    the escalation budget is spent.
    """


class AmbiguousZero(EscalationNeeded):
    """An inner product landed inside the ambiguous band around zero."""


class AmbiguousSign(AmbiguousZero):
    """A sign test landed just below zero, inside the ambiguous band."""


class PrecisionExhausted(GradusError):
    """Escalation hit its budget without reaching a trustworthy verdict."""


class DegenerateSplitting(GradusError):
    """No seeded splitting element separated the eigenvalues.

    Every element tried has a repeated eigenvalue, proved exactly by
    gcd(chi, chi') != 1 for its characteristic polynomial chi, or the
    double-precision Aberth iteration did not settle on the roots of its
    squarefree chi, or Newton's method did not refine one of them, or
    (never seen in practice) the refined roots were no farther apart than
    the separation floor of the working precision.
    """


class NoMorphism(GradusError):
    """No group homomorphism realizes the requested grading pushforward."""


class AmbiguousMorphism(GradusError):
    """A graded piece sits in no, or in several, pieces of the target grading."""


class InternalInconsistency(GradusError):
    """Two independent criteria that must agree did not; signals a numeric fault."""
