"""Exact sparse polynomial Hamiltonians in Fourier coordinates.

State variables are Fourier coefficients u_k, conjugate(u)_k indexed by a
truncated integer mode lattice.  A kernel is a finite map from monomials
(a pair of sorted mode multisets, one for u factors and one for conjugate
factors) to exact Gaussian-rational coefficients.  The module provides
the cubic NLS generators, the canonical Poisson bracket, the phase
function, resonant splitting, and the small-divisor phase filter.

Constant conventions, pinned by direct computation (see the test suite):

* ``h0`` carries i/2 per mode and the bracket carries a global i, so for
  any kernel A, {h0, apply_phase_filter(A, cfg)} equals
  H0_FILTER_FACTOR * (non-resonant part of A) with H0_FILTER_FACTOR = 1/4.
* ``GENERATOR_SCALE = -1 / H0_FILTER_FACTOR = -4`` is the scale applied
  to filtered kernels when they act as flow generators, so that
  {h0, generator} cancels the targeted non-resonant block exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .coeff import GaussianRational

Mode = tuple[int, ...]

# {h0, apply_phase_filter(A, cfg)} == H0_FILTER_FACTOR * nonres(A).
H0_FILTER_FACTOR = Fraction(1, 4)
# scale turning a filtered kernel into a flow generator:
# {h0, GENERATOR_SCALE * apply_phase_filter(A, cfg)} == -nonres(A).
GENERATOR_SCALE = -1 / H0_FILTER_FACTOR


@dataclass(frozen=True)
class ModeLattice:
    """Integer modes with every coordinate in [-radius, radius]."""

    dim: int
    radius: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def modes(self) -> list[Mode]:
        r = range(-self.radius, self.radius + 1)
        return [tuple(k) for k in itertools.product(r, repeat=self.dim)]

    def __contains__(self, mode: Mode) -> bool:
        return len(mode) == self.dim and all(
            abs(c) <= self.radius for c in mode
        )


@dataclass(frozen=True)
class ResonanceConfig:
    """Threshold N: monomials with |phase| <= N count as resonant."""

    threshold: int = 0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")


def _norm2(mode: Mode) -> int:
    return sum(c * c for c in mode)


@dataclass(frozen=True)
class Monomial:
    """u-factors and conjugate factors as sorted mode tuples."""

    u: tuple[Mode, ...]
    ubar: tuple[Mode, ...]

    @staticmethod
    def of(u: Iterable[Mode], ubar: Iterable[Mode]) -> "Monomial":
        return Monomial(tuple(sorted(u)), tuple(sorted(ubar)))

    def __post_init__(self) -> None:
        if len(self.u) != len(self.ubar) or not self.u:
            raise ValueError("monomial needs equally many u and ubar factors")

    @property
    def degree(self) -> int:
        return len(self.u) + len(self.ubar)

    def momentum(self) -> Mode:
        dim = len(self.u[0])
        total = [0] * dim
        for a in self.u:
            for i, c in enumerate(a):
                total[i] += c
        for b in self.ubar:
            for i, c in enumerate(b):
                total[i] -= c
        return tuple(total)

    def phase(self) -> int:
        return sum(_norm2(a) for a in self.u) - sum(
            _norm2(b) for b in self.ubar
        )

    def sort_key(self):
        return (self.degree, self.u, self.ubar)

    def to_json(self) -> dict:
        return {"u": [list(a) for a in self.u], "ubar": [list(b) for b in self.ubar]}


def phase(m: Monomial) -> int:
    return m.phase()


def momentum(m: Monomial) -> Mode:
    return m.momentum()


class Kernel:
    """Immutable finite map Monomial -> GaussianRational.

    Zero coefficients are dropped at construction; every monomial must
    fit the lattice and the even degree cutoff ``max_degree``.
    """

    __slots__ = ("lattice", "max_degree", "_terms")

    def __init__(
        self,
        lattice: ModeLattice,
        max_degree: int,
        terms: Mapping[Monomial, GaussianRational] = (),
    ):
        if max_degree < 2 or max_degree % 2:
            raise ValueError("max_degree must be an even integer >= 2")
        self.lattice = lattice
        self.max_degree = max_degree
        clean: dict[Monomial, GaussianRational] = {}
        for m, c in dict(terms).items():
            if not c:
                continue
            if m.degree > max_degree:
                raise ValueError(f"monomial degree {m.degree} above cutoff")
            for mode in m.u + m.ubar:
                if mode not in lattice:
                    raise ValueError(f"mode {mode} outside lattice")
            clean[m] = c
        self._terms = clean

    @staticmethod
    def zero(lattice: ModeLattice, max_degree: int) -> "Kernel":
        return Kernel(lattice, max_degree)

    def items(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def coefficient(self, m: Monomial) -> GaussianRational:
        return self._terms.get(m, GaussianRational())

    def support(self) -> set[Monomial]:
        return set(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def term_degree(self) -> int:
        """Largest monomial degree present; 0 for the zero kernel."""
        return max((m.degree for m in self._terms), default=0)

    def min_term_degree(self) -> int:
        return min((m.degree for m in self._terms), default=0)

    def degree_slice(self, d: int) -> "Kernel":
        return Kernel(
            self.lattice,
            self.max_degree,
            {m: c for m, c in self._terms.items() if m.degree == d},
        )

    def with_cutoff(self, max_degree: int) -> "Kernel":
        return Kernel(
            self.lattice,
            max_degree,
            {m: c for m, c in self._terms.items() if m.degree <= max_degree},
        )

    def _check_compatible(self, other: "Kernel") -> None:
        if self.lattice != other.lattice or self.max_degree != other.max_degree:
            raise ValueError("kernel lattice/cutoff mismatch")

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check_compatible(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, GaussianRational()) + c
        return Kernel(self.lattice, self.max_degree, terms)

    def __neg__(self) -> "Kernel":
        return Kernel(
            self.lattice, self.max_degree,
            {m: -c for m, c in self._terms.items()},
        )

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + (-other)

    def scale(self, factor) -> "Kernel":
        """Multiply every coefficient by a rational or Gaussian rational."""
        return Kernel(
            self.lattice, self.max_degree,
            {m: c * factor for m, c in self._terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.lattice == other.lattice and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Kernel({len(self._terms)} terms, cutoff {self.max_degree})"

    def to_json(self) -> dict:
        return {
            "dim": self.lattice.dim,
            "radius": self.lattice.radius,
            "max_degree": self.max_degree,
            "terms": [
                {**m.to_json(), **c.to_json()} for m, c in self.items()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Kernel":
        lattice = ModeLattice(data["dim"], data["radius"])
        terms = {}
        for entry in data["terms"]:
            m = Monomial.of(
                [tuple(a) for a in entry["u"]],
                [tuple(b) for b in entry["ubar"]],
            )
            c = GaussianRational.from_json(entry)
            terms[m] = terms.get(m, GaussianRational()) + c
        return Kernel(lattice, data["max_degree"], terms)


def h0(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Kinetic kernel: (i/2) |k|^2 per mode pair (u_k, ubar_k)."""
    terms = {}
    for k in lattice.modes():
        n2 = _norm2(k)
        if n2:
            terms[Monomial.of([k], [k])] = GaussianRational.of(0, Fraction(n2, 2))
    return Kernel(lattice, cutoff, terms)


def h1(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Quartic kernel: (i/4) per ordered 4-tuple with k1 - k2 + k3 - k4 = 0.

    Ordered tuples fold into multiset monomials, so coefficients are i/4
    times the number of ordered representatives.
    """
    if cutoff < 4:
        return Kernel.zero(lattice, cutoff)
    quarter_i = GaussianRational.of(0, Fraction(1, 4))
    terms: dict[Monomial, GaussianRational] = {}
    for k1, k2, k3 in itertools.product(lattice.modes(), repeat=3):
        k4 = tuple(a - b + c for a, b, c in zip(k1, k2, k3))
        if k4 not in lattice:
            continue
        m = Monomial.of([k1, k3], [k2, k4])
        terms[m] = terms.get(m, GaussianRational()) + quarter_i
    return Kernel(lattice, cutoff, terms)


def _remove_one(modes: tuple[Mode, ...], k: Mode) -> tuple[Mode, ...]:
    out = list(modes)
    out.remove(k)
    return tuple(out)


def poisson_bracket(a: Kernel, b: Kernel) -> Kernel:
    """{a, b} = i sum_k (d_{u_k} a d_{ubar_k} b - d_{u_k} b d_{ubar_k} a).

    Monomial pairs whose bracket degree 2(p + q - 1) exceeds the cutoff
    are skipped eagerly and never materialize.
    """
    a._check_compatible(b)
    cutoff = a.max_degree
    terms: dict[Monomial, GaussianRational] = {}

    def accumulate(m: Monomial, c: GaussianRational) -> None:
        terms[m] = terms.get(m, GaussianRational()) + c

    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            if m1.degree + m2.degree - 2 > cutoff:
                continue
            factor = GaussianRational.of(0, 1) * c1 * c2
            for k in set(m1.u) & set(m2.ubar):
                mult = m1.u.count(k) * m2.ubar.count(k)
                m = Monomial.of(
                    _remove_one(m1.u, k) + m2.u,
                    m1.ubar + _remove_one(m2.ubar, k),
                )
                accumulate(m, factor * mult)
            for k in set(m2.u) & set(m1.ubar):
                mult = m2.u.count(k) * m1.ubar.count(k)
                m = Monomial.of(
                    m1.u + _remove_one(m2.u, k),
                    _remove_one(m1.ubar, k) + m2.ubar,
                )
                accumulate(m, factor * (-mult))
    return Kernel(a.lattice, cutoff, terms)


class ResonantSplit(NamedTuple):
    res: Kernel
    nonres: Kernel


def split_resonant(a: Kernel, cfg: ResonanceConfig) -> ResonantSplit:
    """Partition by |phase| <= threshold versus |phase| > threshold."""
    res, nonres = {}, {}
    for m, c in a._terms.items():
        (res if abs(m.phase()) <= cfg.threshold else nonres)[m] = c
    return ResonantSplit(
        Kernel(a.lattice, a.max_degree, res),
        Kernel(a.lattice, a.max_degree, nonres),
    )


def apply_phase_filter(a: Kernel, cfg: ResonanceConfig) -> Kernel:
    """Scale non-resonant monomials by 1/(2*phase); drop resonant ones."""
    terms = {}
    for m, c in a._terms.items():
        p = m.phase()
        if abs(p) > cfg.threshold:
            terms[m] = c / Fraction(2 * p)
    return Kernel(a.lattice, a.max_degree, terms)
