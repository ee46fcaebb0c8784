"""Sign + log-magnitude representation of real numbers.

Values like (alpha/e)**alpha with alpha ~ 1e4 overflow IEEE doubles by
thousands of orders of magnitude; every externally visible magnitude in
this package therefore travels as a :class:`SignedLogReal`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["SignedLogReal"]


@dataclass(frozen=True)
class SignedLogReal:
    """A real number stored as (sign, ln|value|).

    ``sign == 0`` encodes exact zero; ``log_abs`` is then meaningless and
    canonicalised to 0.0 so equal zeros compare equal.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.log_abs != 0.0:
            object.__setattr__(self, "log_abs", 0.0)

    # -- constructors ------------------------------------------------
    @classmethod
    def from_float(cls, x: float) -> "SignedLogReal":
        if x == 0.0:
            return cls(0, 0.0)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_fraction(cls, x: Fraction) -> "SignedLogReal":
        """Exact rational to (sign, ln|x|), accurate to a few ulps however far
        |x| lies outside double range."""
        if x == 0:
            return cls(0, 0.0)
        num, den = abs(x.numerator), x.denominator
        e = num.bit_length() - den.bit_length()  # num/den = m 2^e, m in (1/2, 2)
        m = (num << -e) / den if e < 0 else num / (den << e)
        return cls(1 if x > 0 else -1, math.log(m) + e * math.log(2.0))

    @classmethod
    def from_log(cls, log_abs: float, sign: int = 1) -> "SignedLogReal":
        return cls(sign, log_abs)

    @classmethod
    def zero(cls) -> "SignedLogReal":
        return cls(0, 0.0)

    # -- conversions -------------------------------------------------
    def to_float(self) -> float:
        """Nearest float; overflows to +-inf, underflows to 0.0."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return math.inf * self.sign

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    # -- arithmetic --------------------------------------------------
    def __mul__(self, other: "SignedLogReal") -> "SignedLogReal":
        if self.sign == 0 or other.sign == 0:
            return SignedLogReal(0, 0.0)
        return SignedLogReal(self.sign * other.sign, self.log_abs + other.log_abs)

    def __truediv__(self, other: "SignedLogReal") -> "SignedLogReal":
        if other.sign == 0:
            raise ZeroDivisionError("SignedLogReal division by zero")
        if self.sign == 0:
            return SignedLogReal(0, 0.0)
        return SignedLogReal(self.sign * other.sign, self.log_abs - other.log_abs)

    def __neg__(self) -> "SignedLogReal":
        return SignedLogReal(-self.sign, self.log_abs)

    def __add__(self, other: "SignedLogReal") -> "SignedLogReal":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.log_abs >= other.log_abs else (other, self)
        if self.sign == other.sign:
            return SignedLogReal(self.sign, hi.log_abs + math.log1p(math.exp(lo.log_abs - hi.log_abs)))
        # opposite signs: log-sum-exp with cancellation
        if hi.log_abs == lo.log_abs:
            return SignedLogReal(0, 0.0)
        # log(-expm1(d)) stays finite where exp(d) rounds to 1.0
        diff = math.log(-math.expm1(lo.log_abs - hi.log_abs))
        return SignedLogReal(hi.sign, hi.log_abs + diff)

    def __sub__(self, other: "SignedLogReal") -> "SignedLogReal":
        return self + (-other)

    def powi(self, k: int) -> "SignedLogReal":
        """Integer power (keeps track of sign parity)."""
        if self.sign == 0:
            if k == 0:
                return SignedLogReal(1, 0.0)
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return SignedLogReal(0, 0.0)
        sign = self.sign if k % 2 else 1
        return SignedLogReal(sign, self.log_abs * k)

    def powf(self, p: float) -> "SignedLogReal":
        """Real power; requires a nonnegative base."""
        if self.sign < 0:
            raise ValueError("real power of a negative SignedLogReal")
        if self.sign == 0:
            if p <= 0:
                raise ZeroDivisionError("0 to a nonpositive real power")
            return SignedLogReal(0, 0.0)
        return SignedLogReal(1, self.log_abs * p)

    def scaled(self, factor: float) -> "SignedLogReal":
        """Multiply by an ordinary float."""
        return self * SignedLogReal.from_float(factor)

    def __abs__(self) -> "SignedLogReal":
        return SignedLogReal(abs(self.sign), self.log_abs)
