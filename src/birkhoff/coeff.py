"""Exact Gaussian-rational arithmetic.

Coefficients are ``a + b*i`` with rational ``a``, ``b``.  Everything in the
kernel algebra stays exact; there is no floating point anywhere in the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    @staticmethod
    def of(real: Rational = 0, imag: Rational = 0) -> "GaussianRational":
        return GaussianRational(Fraction(real), Fraction(imag))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        if isinstance(other, Rational):
            f = Fraction(other)
            return GaussianRational(self.real * f, self.imag * f)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            norm = other.real * other.real + other.imag * other.imag
            if norm == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(
                (self.real * other.real + self.imag * other.imag) / norm,
                (self.imag * other.real - self.real * other.imag) / norm,
            )
        if isinstance(other, Rational):
            f = Fraction(other)
            return GaussianRational(self.real / f, self.imag / f)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def magnitude_key(self) -> Fraction:
        """|re| + |im|; used to rank entries in diff reports."""
        return abs(self.real) + abs(self.imag)

    def __repr__(self) -> str:
        return f"({self.real})+({self.imag})i"

    def to_json(self) -> dict:
        return {"re": str(self.real), "im": str(self.imag)}

    @staticmethod
    def from_json(data: dict) -> "GaussianRational":
        # JSON strings only: Fraction would take 2.0 and true, and read a
        # float such as 0.1 as its binary value
        for key in ("re", "im"):
            if type(data[key]) is not str:
                raise ValueError(f"{key} must be a string: {data[key]!r}")
        return GaussianRational(Fraction(data["re"]), Fraction(data["im"]))
