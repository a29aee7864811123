"""Exception types shared across the library."""


class OpcheckError(Exception):
    """Base class for all library errors."""


class ValidationError(OpcheckError):
    """An event payload violates an instance invariant."""


class EntryOutOfRange(ValidationError):
    pass


class RowSumExceedsOne(ValidationError):
    pass


class EventViolation(ValidationError):
    """A semiring matrix with an entry or a row sum outside the sub-unit subset.

    ``kind`` is ``"carrier"`` (entry not in the carrier), ``"complement"``
    (entry with no complement) or ``"row"`` (row sum with no complement);
    ``row`` and ``col`` locate it (``col`` is None for a row sum) and
    ``value`` is the offending element.  Matrix theories translate it into
    their own diagnostics.
    """

    def __init__(self, kind, row, col, value):
        where = f"row {row}" if col is None else f"entry ({row},{col})"
        super().__init__(f"{where} = {value!r} is outside the sub-unit subset ({kind})")
        self.kind = kind
        self.row = row
        self.col = col
        self.value = value


class ChoiNotPositive(ValidationError):
    pass


class NotSubUnital(ValidationError):
    pass


class CompositionError(OpcheckError):
    """Domain/codomain mismatch in a composition or pairing."""


class Incompatible(OpcheckError):
    """Two events admit no joint pairing, so they cannot be merged."""


class NotAPartialTest(OpcheckError):
    """A family of events with common domain admits no pairing morphism."""


class NoComplement(OpcheckError):
    """An effect has no complementary effect."""


class NonUniqueComplement(OpcheckError):
    """An effect has several complementary effects.

    Carries every witness found in ``witnesses``.
    """

    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = list(witnesses)


class NotEnumerable(OpcheckError):
    """The homset cannot be exhaustively enumerated."""


class BoundExceeded(OpcheckError):
    """Enumeration passed the configured cap; ``count`` is the size reached."""

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


class NotMonoidal(OpcheckError):
    """A tensor was requested from a theory without monoidal structure."""


class NotAvailable(OpcheckError):
    """The theory does not provide the requested structure (e.g. coproducts)."""


class NotATheoryMorphism(OpcheckError):
    """Functor data fails to preserve tests, merging, or the trivial system."""


class SemiringLawError(OpcheckError):
    """A finite semiring table violates one of the semiring laws."""


class EigensolverError(OpcheckError):
    """The eigensolver failed; distinct from a negative verdict."""


class TheoryFileError(OpcheckError):
    """A theory description file failed to parse or validate.

    ``location`` names the offending key path when known.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
