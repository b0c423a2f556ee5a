"""Exact scalar arithmetic over Q and over prime fields F_p.

Scalars are plain ``fractions.Fraction`` values over Q and reduced ints in
``[0, p)`` over F_p, so every computation in the package is exact.  They
are the boundary form: ``linalg`` stores rows as integers and builds
Fractions only when a caller reads values.  A scalar string over Q is an
integer or ``num/den`` and nothing else (``parse_scalar_string``).  A
``Field`` value is immutable and hashable; two fields compare equal iff they
have the same modulus (``None`` meaning Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Fractions are immutable, so Q's zero and one are shared.
_ZERO, _ONE = Fraction(0), Fraction(1)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def zero(self):
        return _ZERO if self.p is None else 0

    def one(self):
        return _ONE if self.p is None else 1

    def coerce(self, x):
        """Bring an int/Fraction (or scalar string) into canonical form; a
        Fraction over Q is returned as it is."""
        if self.p is None and type(x) is Fraction:
            return x
        if isinstance(x, str):
            x = parse_scalar_string(x)
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes modulo {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p is not None else 1 / a

    def elements(self):
        """All field elements; only available over F_p."""
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return range(self.p)

    def format_scalar(self, a) -> str | int:
        """JSON-friendly form: ints over F_p, 'num/den' strings over Q."""
        if self.p is not None:
            return int(a)
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def __str__(self):
        return "Q" if self.p is None else f"F{self.p}"


def parse_scalar_string(text: str) -> Fraction:
    """Parse 'num' or 'num/den' into an exact Fraction: an optional sign,
    then ASCII digits, then optionally '/' and ASCII digits.  Anything else
    (decimals, exponents, underscores, spaces) raises ValueError, and so
    does a zero denominator (ZeroDivisionError); Python's limit on the
    digits of an int bounds the work."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not all(part.isascii() and part.isdigit()
               for part in ((digits, den) if slash else (digits,))):
        raise ValueError(f"not an integer or 'num/den': {text!r}")
    return Fraction(int(num), int(den) if slash else 1)


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)
