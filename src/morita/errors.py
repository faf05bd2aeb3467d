"""Exception hierarchy.

Every failure that carries a finite witness (a triple breaking
associativity, a pair of non-commuting idempotents, ...) stores it on the
exception so callers and the CLI can surface it.
"""


class MoritaError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str = "", witness=None):
        self.witness = witness
        if witness is not None:
            message = f"{message} (witness: {witness})"
        super().__init__(message)


class ParseError(MoritaError):
    pass


class NotAssociative(MoritaError):
    pass


class NotRegular(MoritaError):
    pass


class IdempotentsDontCommute(MoritaError):
    pass


class NonUniqueInverse(MoritaError):
    pass


class NotASubsemigroup(MoritaError):
    pass


class SizeLimit(MoritaError):
    pass


class SourceTargetMismatch(MoritaError):
    pass


class NotFullSubcategory(MoritaError):
    pass


class CospanMismatch(MoritaError):
    pass


class NoPullbacks(MoritaError):
    pass


class NoRightLocalUnits(MoritaError):
    pass


class NotClosed(MoritaError):
    pass


class WrongSite(MoritaError):
    pass


class InvalidBiset(MoritaError):
    pass


class AssociativityFailure(MoritaError):
    pass


class PreconditionFailed(MoritaError):
    pass


class NotAnEnlargement(MoritaError):
    pass


class UndefinedPseudoproduct(MoritaError):
    pass


class NotBelow(MoritaError):
    pass


class NotUnique(MoritaError):
    pass


class NotPrincipallyInductive(MoritaError):
    pass


class NotASubgroupoid(MoritaError):
    pass


class NotAnOrderedFunctor(MoritaError):
    pass


class NotInverseSemigroupoid(MoritaError):
    pass


class BudgetExceeded(MoritaError):
    pass


# the budget of every exhaustive search, unless the caller (or --budget) gives one
DEFAULT_BUDGET = 10_000_000


class InvariantBroken(MoritaError):
    """A construction's own invariant fails, e.g. a colimit is not well defined.

    Raised where the input is out of the construction's contract (say, a
    presheaf whose maps are not functorial) or the construction is wrong.
    """
