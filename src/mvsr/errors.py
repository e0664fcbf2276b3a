"""Exception types shared across the toolkit, and the checks of counts
and bounds that raise them."""
import operator


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTable(ToolkitError):
    """An operation table has the wrong shape or an out-of-range entry."""


class GuardBreach(ToolkitError):
    """A configured resource bound would be exceeded."""


class SizeGuard(GuardBreach):
    """A carrier would exceed the configured maximum size."""


class EnumGuard(GuardBreach):
    """An enumeration would exceed the configured maximum count."""


class NotIdempotent(ToolkitError):
    """The additive monoid is not idempotent, so no natural order exists."""


class NegationOfTop(ToolkitError):
    """Top has no multiplicative inverse in a tropical semifield."""


class ChainTooShort(ToolkitError):
    """A chain needs at least two elements."""


class NotAnIdeal(ToolkitError):
    """The given subset fails one of the ideal conditions."""


class TooManyVariables(ToolkitError):
    """An equation uses more variables than the evaluator allows."""


class ShapeMismatch(ToolkitError):
    """Matrix shapes are incompatible for the requested operation."""


class ScalarMismatch(ToolkitError):
    """Two structures live over different scalar semirings."""


class NotFreeBasis(ToolkitError):
    """The operation needs a free semimodule with a recorded basis."""


class NoDecomposition(ToolkitError):
    """No coefficient vector expresses the element over the generators."""


class NotCyclic(ToolkitError):
    """The semimodule is not generated by a single element."""


class NotAModule(ToolkitError):
    """A semimodule description breaks one of the semimodule laws."""


class NotAHom(ToolkitError):
    """The given map fails a homomorphism law."""


class NotOnto(ToolkitError):
    """The homomorphism is not surjective."""


class IllDefinedAction(ToolkitError):
    """A scalar action does not respect the congruence classes."""


def check_count(value, name: str, least: int | None,
                error: type = ValueError) -> int:
    """value as a Python int of at least least, or of any value when least
    is None: the one rule for every size, sample count and bound of the
    package, and for every integer of a table (semiring._entry).
    operator.index takes Python and NumPy integers and refuses floats,
    strings, None and sequences; bool is an int subclass, so it is refused
    by name. Else error, ValueError for a parameter and MalformedTable for
    a count read from table data, with a message that names name."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise error(f"{name}={value!r} must be an integer") from None
    if least is not None and count < least:
        raise error(f"{name}={count} must be at least {least}")
    return count


def check_bound(guard: type, stage: str, estimate: int, name: str,
                bound: int) -> None:
    """Raise guard when estimate exceeds the bound called name; the
    message names the stage, the estimate and the bound. An estimate
    wider than 64 bits is shown as the power of two below it, since
    Python refuses to print integers of more than 4300 digits. A bound
    that is not an integer is refused by check_count, with no lower
    bound."""
    bound = check_count(bound, name, None)
    if estimate > bound:
        shown = str(estimate) if estimate.bit_length() <= 64 else \
            f"at least 2^{estimate.bit_length() - 1}"
        raise guard(f"{stage}: {shown} exceeds {name}={bound}")


def check_power_bound(guard: type, stage: str, base: int, exponent: int,
                      name: str, bound: int) -> None:
    """check_bound on base ** exponent, without computing a power that
    cannot fit: when the lower bound 2^((bits of base - 1) * exponent)
    already exceeds both 2^64 and the bound, raise with that lower bound.
    The bound is checked as check_bound checks it."""
    low = (base.bit_length() - 1) * exponent
    if low > 64 and check_count(bound, name, None).bit_length() <= low:
        raise guard(f"{stage}: at least 2^{low} exceeds {name}={bound}")
    check_bound(guard, stage, base ** exponent, name, bound)
