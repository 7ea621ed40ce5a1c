"""Exact sparse polynomial Hamiltonians in Fourier coordinates.

State variables are Fourier coefficients u_k, conjugate(u)_k indexed by a
truncated integer mode lattice.  A kernel is a finite map from monomials
(a pair of sorted mode multisets, one for u factors and one for conjugate
factors) to purely imaginary exact coefficients i*c, held as one map from
each monomial to its nonzero ``Fraction`` c: h0 and h1 are imaginary, and
so are rational multiples, sums, the phase filter and the bracket of
imaginary kernels.  The module provides the cubic NLS generators, the
canonical Poisson bracket, the phase function, resonant splitting, and
the small-divisor phase filter.

The bracket is the hot path, and it stays exact.  It is built on one
contraction, Q(x, y) = sum_k d_{ubar_k} x d_{u_k} y, which pairs the
conjugate factors of x with the u factors of y; {iA, iB} =
i*(Q(A, B) - Q(B, A)) is two contractions.  Per call, each operand is
indexed by each mode of its u factors, so only monomial pairs that
contract are visited; pairs past the degree cutoff are dropped before a
monomial is built.

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
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .coeff import GaussianRational

Mode = tuple[int, ...]

# {h0, apply_phase_filter(A, cfg)} == H0_FILTER_FACTOR * nonres(A).
H0_FILTER_FACTOR = Fraction(1, 4)
# scale turning a filtered kernel into a flow generator:
# {h0, GENERATOR_SCALE * apply_phase_filter(A, cfg)} == -nonres(A).
GENERATOR_SCALE = -1 / H0_FILTER_FACTOR

_ZERO = Fraction(0)


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
    """Immutable finite map Monomial -> purely imaginary Gaussian rational.

    ``im`` maps each monomial to the nonzero ``Fraction`` c of its
    coefficient i*c; ``items()`` and ``coefficient()`` return
    ``GaussianRational`` values with real part 0.  Zeros are dropped at
    construction; every monomial must fit the lattice and the even
    degree cutoff ``max_degree``.
    """

    __slots__ = ("lattice", "max_degree", "im")

    def __init__(self, lattice: ModeLattice, max_degree: int,
                 im: Mapping[Monomial, Fraction] = ()):
        if max_degree < 2 or max_degree % 2:
            raise ValueError("max_degree must be an even integer >= 2")
        self.lattice = lattice
        self.max_degree = max_degree
        self.im = {}
        modes: set[Mode] = set()
        for m, c in dict(im).items():
            if not c:
                continue
            degree = len(m.u) + len(m.ubar)
            if degree > max_degree:
                raise ValueError(f"monomial degree {degree} above cutoff")
            modes.update(m.u)
            modes.update(m.ubar)
            self.im[m] = c
        # each distinct mode is checked once; the smallest bad one is named
        bad = [mode for mode in modes if mode not in lattice]
        if bad:
            raise ValueError(f"mode {min(bad)} outside lattice")

    @staticmethod
    def of(lattice: ModeLattice, max_degree: int,
           terms: Mapping[Monomial, GaussianRational]) -> "Kernel":
        """The kernel with these purely imaginary coefficients; the
        inverse of ``items()``."""
        for m, c in terms.items():
            if c.real:
                raise ValueError(f"nonzero real part in {m}: {c}")
        return Kernel(lattice, max_degree,
                      {m: c.imag for m, c in terms.items()})

    @staticmethod
    def zero(lattice: ModeLattice, max_degree: int) -> "Kernel":
        return Kernel(lattice, max_degree)

    def items(self) -> list[tuple[Monomial, GaussianRational]]:
        ordered = sorted(self.im.items(), key=lambda mc: mc[0].sort_key())
        return [(m, GaussianRational(_ZERO, c)) for m, c in ordered]

    def coefficient(self, m: Monomial) -> GaussianRational:
        return GaussianRational(_ZERO, self.im.get(m, _ZERO))

    def support(self) -> set[Monomial]:
        return set(self.im)

    @property
    def is_zero(self) -> bool:
        return not self.im

    def __len__(self) -> int:
        return len(self.im)

    def term_degree(self) -> int:
        """Largest monomial degree present; 0 for the zero kernel."""
        return max((m.degree for m in self.im), default=0)

    def min_term_degree(self) -> int:
        return min((m.degree for m in self.im), default=0)

    def _map(self, f, max_degree: int | None = None) -> "Kernel":
        """Each coefficient c of each monomial m replaced by f(m, c), where
        a zero drops it; the cutoff stays unless max_degree is given."""
        return Kernel(self.lattice,
                      self.max_degree if max_degree is None else max_degree,
                      {m: f(m, c) for m, c in self.im.items()})

    def degree_slice(self, d: int) -> "Kernel":
        return self._map(lambda m, c: c if m.degree == d else _ZERO)

    def with_cutoff(self, max_degree: int) -> "Kernel":
        return self._map(
            lambda m, c: c if m.degree <= max_degree else _ZERO, max_degree)

    def _check_compatible(self, other: "Kernel") -> None:
        if self.lattice != other.lattice or self.max_degree != other.max_degree:
            raise ValueError("kernel lattice/cutoff mismatch")

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check_compatible(other)
        im = dict(self.im)
        for m, c in other.im.items():
            im[m] = im.get(m, _ZERO) + c
        return Kernel(self.lattice, self.max_degree, im)

    def __neg__(self) -> "Kernel":
        return self.scale(-1)

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + (-other)

    def scale(self, factor: Fraction) -> "Kernel":
        """Multiply every coefficient by a rational."""
        return self._map(lambda m, c: c * factor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.max_degree == other.max_degree
            and self.im == other.im
        )

    def __repr__(self) -> str:
        return f"Kernel({len(self)} terms, cutoff {self.max_degree})"

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
        # JSON integers only: 2.0 and true compare equal to 2 and 1
        for key in ("dim", "radius", "max_degree"):
            if type(data[key]) is not int:
                raise ValueError(f"{key} must be an integer: {data[key]!r}")
        lattice = ModeLattice(data["dim"], data["radius"])
        terms = {}
        for entry in data["terms"]:
            u = [tuple(a) for a in entry["u"]]
            ubar = [tuple(b) for b in entry["ubar"]]
            # JSON integers only: 1.5 would pass the lattice's |c| <= K
            if any(type(c) is not int for mode in u + ubar for c in mode):
                raise ValueError(f"mode coordinates must be integers: {entry}")
            m = Monomial.of(u, ubar)
            if m in terms:
                raise ValueError(f"monomial {m} listed twice")
            try:
                terms[m] = GaussianRational.from_json(entry)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator: {entry}") from exc
        return Kernel.of(lattice, data["max_degree"], terms)


def h0(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Kinetic kernel: (i/2) |k|^2 per mode pair (u_k, ubar_k)."""
    im = {}
    for k in lattice.modes():
        n2 = _norm2(k)
        if n2:
            im[Monomial.of([k], [k])] = Fraction(n2, 2)
    return Kernel(lattice, cutoff, im=im)


def h1(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Quartic kernel: (i/4) per ordered 4-tuple with k1 - k2 + k3 - k4 = 0.

    Ordered tuples fold into multiset monomials, so coefficients are i/4
    times the number of ordered representatives.
    """
    if cutoff < 4:
        return Kernel.zero(lattice, cutoff)
    quarter = Fraction(1, 4)
    im: dict[Monomial, Fraction] = {}
    for k1, k2, k3 in itertools.product(lattice.modes(), repeat=3):
        k4 = tuple(a - b + c for a, b, c in zip(k1, k2, k3))
        if k4 not in lattice:
            continue
        m = Monomial.of([k1, k3], [k2, k4])
        im[m] = im.get(m, _ZERO) + quarter
    return Kernel(lattice, cutoff, im=im)


def _remove_one(modes: tuple[Mode, ...], k: Mode) -> tuple[Mode, ...]:
    out = list(modes)
    out.remove(k)
    return tuple(out)


def _index(part: dict) -> dict:
    """Entries of part by each mode of their u factors.

    An entry is (degree, u with one copy of the mode removed, ubar,
    coefficient times the mode's multiplicity).  Each mode's list is
    sorted by degree, so a caller stops at the first entry above its
    degree limit.
    """
    by_u: dict[Mode, list] = {}
    for m, c in part.items():
        u, ubar = m.u, m.ubar
        d = len(u) + len(ubar)
        for k in set(u):
            by_u.setdefault(k, []).append(
                (d, _remove_one(u, k), ubar, c * u.count(k))
            )
    for entries in by_u.values():
        entries.sort(key=itemgetter(0))
    return by_u


def _contract(x: dict, y_by_u: dict, cutoff: int, sign: int,
              out: dict) -> None:
    """Add sign * Q(x, y) to out, keyed by (u, ubar) tuples.

    Q(x, y) = sum_k d_{ubar_k} x d_{u_k} y pairs the ubar factors of x
    with the u factors of y; y is given by its ``_index``.
    """
    for m1, c1 in x.items():
        u1, ubar1 = m1.u, m1.ubar
        # m2 contributes only if deg(m1) + deg(m2) - 2 <= cutoff
        limit = cutoff + 2 - len(u1) - len(ubar1)
        for k in set(ubar1):
            entries = y_by_u.get(k)
            if entries is None:
                continue
            ubar1k = _remove_one(ubar1, k)
            c = c1 * (sign * ubar1.count(k))
            for d2, u2k, ubar2, c2 in entries:
                if d2 > limit:
                    break
                key = (tuple(sorted(u1 + u2k)), tuple(sorted(ubar1k + ubar2)))
                out[key] = out.get(key, _ZERO) + c * c2


def poisson_bracket(a: Kernel, b: Kernel) -> Kernel:
    """{a, b} = i sum_k (d_{u_k} a d_{ubar_k} b - d_{u_k} b d_{ubar_k} a).

    Exact.  With Q the contraction of ``_contract``, {iA, iB} =
    i*(Q(A, B) - Q(B, A)): two contractions into one ``im`` map.  Each
    operand is indexed by the modes of its u factors once per call, so
    only monomial pairs that share a contractible mode are visited, and
    a pair whose bracket degree deg(m1) + deg(m2) - 2 exceeds the cutoff
    is dropped before any monomial is built.
    """
    a._check_compatible(b)
    cutoff = a.max_degree
    out: dict = {}
    _contract(a.im, _index(b.im), cutoff, 1, out)
    _contract(b.im, _index(a.im), cutoff, -1, out)
    return Kernel(a.lattice, cutoff,
                  {Monomial(*key): c for key, c in out.items() if c})


class ResonantSplit(NamedTuple):
    res: Kernel
    nonres: Kernel


def split_resonant(a: Kernel, cfg: ResonanceConfig) -> ResonantSplit:
    """Partition by |phase| <= threshold versus |phase| > threshold."""
    res, nonres = {}, {}
    for m, c in a.im.items():
        (res if abs(m.phase()) <= cfg.threshold else nonres)[m] = c
    return ResonantSplit(Kernel(a.lattice, a.max_degree, res),
                         Kernel(a.lattice, a.max_degree, nonres))


def apply_phase_filter(a: Kernel, cfg: ResonanceConfig) -> Kernel:
    """Scale non-resonant monomials by 1/(2*phase); drop resonant ones."""
    def filtered(m: Monomial, c: Fraction) -> Fraction:
        p = m.phase()
        return c / (2 * p) if abs(p) > cfg.threshold else _ZERO

    return a._map(filtered)
