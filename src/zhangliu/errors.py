"""Exception types raised by the library, and the precondition checks that
every entry point shares, so each precondition has one text."""


class ZhangLiuError(Exception):
    """Base class for all library errors."""


class ParseError(ZhangLiuError, ValueError):
    """A field spec or element text could not be parsed."""


class NotPrime(ZhangLiuError, ValueError):
    """A claimed prime characteristic is composite (or < 2)."""


class Reducible(ZhangLiuError, ValueError):
    """A supplied extension modulus factors over the base field."""


class FieldTooLarge(ZhangLiuError, ValueError):
    """The requested field exceeds the desk-scale size ceiling."""


class MixedFields(ZhangLiuError, ValueError):
    """Operands belong to different fields."""


class DivisionByZero(ZhangLiuError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ZeroElement(ZhangLiuError, ValueError):
    """An operation defined on nonzero elements received zero."""


class ZeroParameter(ZhangLiuError, ValueError):
    """A matrix-family parameter that must be nonzero was zero."""


class SingularParameter(ZhangLiuError, ValueError):
    """x^2 = 1: the similarity parameter yx/(x^2-1) does not exist."""


class NotTriangular(ZhangLiuError, ValueError):
    """An upper-triangular matrix was required."""


class DimensionMismatch(ZhangLiuError, ValueError):
    """Matrix operands have different dimensions."""


class OutOfRange(ZhangLiuError, ValueError):
    """An integer argument (the dimension n, a brute-force cap) is below its minimum."""


class InfiniteField(ZhangLiuError, ValueError):
    """A finite field was required: a census, or a default brute-force cap, over qq."""


def check_params(n: int | None = None, x=None, minimum: int = 2, y=None) -> None:
    """Raise the error of the first fault, in the order the CLI reports them:
    n below ``minimum`` (OutOfRange), then x = 0 (ZeroParameter), then y and
    x in different fields (MixedFields).  None skips a test."""
    if n is not None and n < minimum:
        raise OutOfRange(f"n must be >= {minimum}")
    if x is not None and x.is_zero():
        raise ZeroParameter("x must be nonzero")
    if y is not None and y.field is not x.field and y.field != x.field:
        raise MixedFields("y and x must share a field")


def check_cap(cap: int) -> None:
    """A brute-force cap must allow at least one step."""
    if cap < 1:
        raise OutOfRange("cap must be >= 1")
