"""Exact sparse polynomial Hamiltonians in Fourier coordinates.

State variables are Fourier coefficients u_k, conjugate(u)_k indexed by a
truncated integer mode lattice.  A kernel is a finite map from monomials
(a pair of sorted mode multisets, one for u factors and one for conjugate
factors) to purely imaginary exact coefficients i*c: h0 and h1 are
imaginary, and so are rational multiples, sums, the phase filter and the
bracket of imaginary kernels.  The module provides the cubic NLS
generators, the canonical Poisson bracket, and the two functions that
apply the resonance rule |phase| <= N: the resonant split and the
small-divisor phase filter.

Inside a kernel a monomial is one packed int, its key, and the rationals
c are int numerators over one common int denominator.  Each (lattice,
cutoff) has one codec that fixes the layout: with M modes in
``lattice.modes()`` order and a field width w wide enough for any
exponent up to cutoff/2, a key is degree << 2Mw | ubar-block << Mw |
u-block, the exponent of mode j sitting in bits [wj, w(j+1)) of its
block.  Keys sort by degree, the product of two monomials is the sum of
their keys, and a derivative subtracts one shifted unit from a block and
one from the degree.  ``Monomial`` and the rational c of each i*c appear
only at the boundary: ``Kernel.of``, ``from_json``, ``items``,
``coefficient``, ``support`` and ``to_json``; ``json_text`` writes the
text of ``to_json`` straight from the keys.  Each codec decodes an
exponent block (the u or the ubar half of a key) once, into tables keyed
by the block int that fill lazily and live as long as the codec: they
hold one entry per distinct block met: hundreds at dim 1, thousands at
dim 2, K 2.

The bracket is the hot path, and it stays exact.  It is built on one
contraction, Q(x, y) = sum_k d_{ubar_k} x d_{u_k} y, which pairs the
conjugate factors of x with the u factors of y; {iA, iB} =
i*(Q(A, B) - Q(B, A)) is two contractions.  Per call, each operand is
indexed by each mode of its u factors, so only monomial pairs that
contract are visited; pairs past the degree cutoff are dropped before a
key is built, so no exponent field can carry into the next.

Constant conventions, pinned by direct computation (see the test suite):

* ``h0`` carries i/2 per mode and the bracket carries a global i, so for
  any kernel A, {h0, apply_phase_filter(A, cfg)} equals
  H0_FILTER_FACTOR * (non-resonant part of A) with H0_FILTER_FACTOR = 1/4.
* ``GENERATOR_SCALE = -1 / H0_FILTER_FACTOR = -4`` is the scale applied
  to filtered kernels when they act as flow generators, so that
  {h0, generator} cancels the targeted non-resonant block exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, NamedTuple

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

    def resonant(self, phase: int) -> bool:
        """The one resonance rule: |phase| <= N."""
        return abs(phase) <= self.threshold


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


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


class _Codec:
    """Packed monomial keys for one (lattice, cutoff).

    Mode j of ``lattice.modes()`` owns bits [w*j, w*(j+1)) of the u block
    (the low M*w bits) and of the ubar block (the next M*w); the degree
    sits above both, at ``shift``.  Since 2**w > cutoff/2, no exponent of
    a monomial within the cutoff reaches the next field.

    A block is decoded once per codec: ``fields``, ``factors`` and
    ``norm`` are tables keyed by block int, filled on first lookup, so
    each holds one entry per distinct exponent block the codec has met.
    """

    def __init__(self, lattice: ModeLattice, cutoff: int):
        self.modes = modes = lattice.modes()
        self.index = {k: j for j, k in enumerate(modes)}
        self.norm2 = norm2 = [_norm2(k) for k in modes]
        self.w = w = (cutoff // 2).bit_length()
        self.mask = (1 << w) - 1
        self.ubar_shift = len(modes) * w
        self.block = (1 << self.ubar_shift) - 1
        self.shift = 2 * self.ubar_shift
        # one more degree, one more u_j, one more ubar_j
        self.unit = 1 << self.shift
        self.u_units = [1 << (w * j) for j in range(len(modes))]
        self.ubar_units = [u << self.ubar_shift for u in self.u_units]
        # (mode index j, exponent) for each nonzero field of a block
        self.fields = fields = _Table(self._walk)
        # the block's factors as a mode tuple, sorted as lattice.modes() is
        self.factors = _Table(lambda b: tuple(
            modes[j] for j, e in fields[b] for _ in range(e)))
        # sum of e * |k_j|^2 over the block's fields
        self.norm = _Table(lambda b: sum(e * norm2[j] for j, e in fields[b]))

    def _walk(self, block: int) -> tuple[tuple[int, int], ...]:
        w, mask = self.w, self.mask
        out = []
        while block:
            j = ((block & -block).bit_length() - 1) // w
            e = (block >> (w * j)) & mask
            out.append((j, e))
            block -= e << (w * j)
        return tuple(out)

    def monomial(self, key: int) -> Monomial:
        """The monomial of a key."""
        return Monomial(self.factors[key & self.block],
                        self.factors[key >> self.ubar_shift & self.block])

    def encode(self, m: Monomial) -> int:
        """The key of a monomial whose modes and degree fit this codec."""
        index, u_units, ubar_units = self.index, self.u_units, self.ubar_units
        return (m.degree << self.shift) + sum(
            u_units[index[k]] for k in m.u
        ) + sum(ubar_units[index[k]] for k in m.ubar)

    def phase(self, key: int) -> int:
        return (self.norm[key & self.block]
                - self.norm[key >> self.ubar_shift & self.block])


@functools.cache
def _codec_for(lattice: ModeLattice, cutoff: int) -> _Codec:
    return _Codec(lattice, cutoff)


def _ratio(c: int, den: int) -> str:
    """c/den in lowest terms, as ``str(Fraction(c, den))`` writes it."""
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _check_cutoff(max_degree: int) -> None:
    if max_degree < 2 or max_degree % 2:
        raise ValueError("max_degree must be an even integer >= 2")


class Kernel:
    """Immutable finite map Monomial -> purely imaginary coefficient i*c.

    The coefficient of the monomial with packed key ``key`` is
    i * nums[key] / den, held in canonical form: every numerator is a
    nonzero int, ``den`` is a positive int, and gcd(den, *nums) == 1, so
    equal kernels hold equal maps and denominators.  The constructor
    takes keys of the (lattice, max_degree) codec.  At the boundary a
    coefficient is the ``Fraction`` c that stands for i*c: ``Kernel.of``
    takes a Monomial -> c map, ``items()`` and ``coefficient()`` return
    c, and ``from_json`` reads c from the "im" string of each term and
    refuses an "re" that does not read as zero.  The cutoff
    ``max_degree`` is even, and no monomial exceeds it.
    """

    __slots__ = ("lattice", "max_degree", "nums", "den", "_codec")

    def __init__(self, lattice: ModeLattice, max_degree: int,
                 nums: Mapping[int, int] | None = None, den: int = 1):
        _check_cutoff(max_degree)
        self.lattice = lattice
        self.max_degree = max_degree
        self._codec = codec = _codec_for(lattice, max_degree)
        nums = {key: c for key, c in nums.items() if c} if nums else {}
        if nums:
            degree = max(nums) >> codec.shift
            if degree > max_degree:
                raise ValueError(f"monomial degree {degree} above cutoff")
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {key: c // g for key, c in nums.items()}
            den //= g
        self.nums = nums
        self.den = den

    @staticmethod
    def of(lattice: ModeLattice, max_degree: int,
           terms: Mapping[Monomial, Rational]) -> "Kernel":
        """The kernel with coefficient i*c on each monomial m, for the
        rationals c = terms[m]; the inverse of ``items()``.  Zero
        coefficients are dropped."""
        _check_cutoff(max_degree)
        im = {m: c for m, c in terms.items() if c}
        modes: set[Mode] = set()
        for m in im:
            if m.degree > max_degree:
                raise ValueError(f"monomial degree {m.degree} above cutoff")
            modes.update(m.u)
            modes.update(m.ubar)
        # each distinct mode is checked once; the smallest bad one is named
        bad = [mode for mode in modes if mode not in lattice]
        if bad:
            raise ValueError(f"mode {min(bad)} outside lattice")
        codec = _codec_for(lattice, max_degree)
        den = math.lcm(*(c.denominator for c in im.values()))
        return Kernel(lattice, max_degree, {
            codec.encode(m): c.numerator * (den // c.denominator)
            for m, c in im.items()
        }, den)

    def _sorted_keys(self) -> list[int]:
        """The keys in ``Monomial.sort_key`` order."""
        codec = self._codec
        factors, block, ubar_shift = (codec.factors, codec.block,
                                      codec.ubar_shift)
        shift = codec.shift
        return sorted(self.nums, key=lambda key: (
            key >> shift, factors[key & block],
            factors[key >> ubar_shift & block]))

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """(m, c) pairs in ``Monomial.sort_key`` order; i*c is the
        coefficient of m."""
        monomial, nums, den = self._codec.monomial, self.nums, self.den
        return [(monomial(key), Fraction(nums[key], den))
                for key in self._sorted_keys()]

    def coefficient(self, m: Monomial) -> Fraction:
        """The c of m's coefficient i*c; 0 for a monomial not held."""
        codec = self._codec
        if m.degree > self.max_degree or not all(
            k in codec.index for k in (*m.u, *m.ubar)
        ):
            return Fraction(0)
        return Fraction(self.nums.get(codec.encode(m), 0), self.den)

    def support(self) -> set[Monomial]:
        monomial = self._codec.monomial
        return {monomial(key) for key in self.nums}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __len__(self) -> int:
        return len(self.nums)

    def term_degree(self) -> int:
        """Largest monomial degree present; 0 for the zero kernel."""
        return max(self.nums) >> self._codec.shift if self.nums else 0

    def min_term_degree(self) -> int:
        return min(self.nums) >> self._codec.shift if self.nums else 0

    def degree_slice(self, d: int) -> "Kernel":
        shift = self._codec.shift
        return Kernel(self.lattice, self.max_degree, {
            key: c for key, c in self.nums.items() if key >> shift == d
        }, self.den)

    def with_cutoff(self, max_degree: int) -> "Kernel":
        _check_cutoff(max_degree)
        old, new = self._codec, _codec_for(self.lattice, max_degree)
        return Kernel(self.lattice, max_degree, {
            new.encode(old.monomial(key)): c
            for key, c in self.nums.items() if key >> old.shift <= max_degree
        }, self.den)

    def _check_compatible(self, other: "Kernel") -> None:
        if self.lattice != other.lattice or self.max_degree != other.max_degree:
            raise ValueError("kernel lattice/cutoff mismatch")

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        nums = {key: c * fa for key, c in self.nums.items()}
        for key, c in other.nums.items():
            nums[key] = nums.get(key, 0) + c * fb
        return Kernel(self.lattice, self.max_degree, nums, den)

    def __neg__(self) -> "Kernel":
        return self.scale(-1)

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + (-other)

    def scale(self, factor: Fraction) -> "Kernel":
        """Multiply every coefficient by a rational."""
        f = Fraction(factor)
        n = f.numerator
        return Kernel(self.lattice, self.max_degree, {
            key: c * n for key, c in self.nums.items()
        }, self.den * f.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.max_degree == other.max_degree
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self) -> str:
        return f"Kernel({len(self)} terms, cutoff {self.max_degree})"

    def to_json(self) -> dict:
        monomial, nums, den = self._codec.monomial, self.nums, self.den
        return {
            "dim": self.lattice.dim,
            "radius": self.lattice.radius,
            "max_degree": self.max_degree,
            "terms": [{**monomial(key).to_json(), "re": "0",
                       "im": _ratio(nums[key], den)}
                      for key in self._sorted_keys()],
        }

    def json_text(self, depth: int = 0) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, indent=2)``, byte
        for byte, for the kernel nested ``depth`` levels deep in a larger
        document: every line after the first is indented by 2 * depth
        more spaces.  The text is written from a fixed template, since
        the json module's indenting encoder runs in pure Python."""
        pad = "\n" + "  " * depth
        p1, p2, p3, p4, p5 = (pad + "  " * i for i in range(1, 6))
        codec = self._codec
        factors, block, ubar_shift = (codec.factors, codec.block,
                                      codec.ubar_shift)
        # each mode's "[ ... ]" list item, and each block's list of them
        item = {k: f"{p4}[{p5}" + f",{p5}".join(map(str, k)) + f"{p4}]"
                for k in codec.modes}.__getitem__
        text = _Table(lambda b: ",".join(map(item, factors[b])))
        nums, den = self.nums, self.den
        terms = [
            f'{p2}{{{p3}"im": "{_ratio(nums[key], den)}",{p3}"re": "0",'
            f'{p3}"u": [{text[key & block]}{p3}],'
            f'{p3}"ubar": [{text[key >> ubar_shift & block]}{p3}]{p2}}}'
            for key in self._sorted_keys()
        ]
        listing = f"[{','.join(terms)}{p1}]" if terms else "[]"
        return (f'{{{p1}"dim": {self.lattice.dim},{p1}"max_degree": '
                f'{self.max_degree},{p1}"radius": {self.lattice.radius},'
                f'{p1}"terms": {listing}{pad}}}')

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
            # JSON strings only: Fraction would take 2.0 and true, and read
            # a float such as 0.1 as its binary value
            for key in ("re", "im"):
                if type(entry[key]) is not str:
                    raise ValueError(
                        f"{key} must be a string: {entry[key]!r}")
            try:
                real, terms[m] = Fraction(entry["re"]), Fraction(entry["im"])
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator: {entry}") from exc
            if real:
                raise ValueError(f"nonzero real part in {m}: {real}")
        return Kernel.of(lattice, data["max_degree"], terms)


def h0(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Kinetic kernel: (i/2) |k|^2 per mode pair (u_k, ubar_k)."""
    codec = _codec_for(lattice, cutoff)
    nums = {
        2 * codec.unit + codec.u_units[j] + codec.ubar_units[j]: n2
        for j, n2 in enumerate(codec.norm2) if n2
    }
    return Kernel(lattice, cutoff, nums, 2)


def h1(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Quartic kernel: (i/4) per ordered 4-tuple with k1 - k2 + k3 - k4 = 0.

    Ordered tuples fold into multiset monomials, so coefficients are i/4
    times the number of ordered representatives.
    """
    if cutoff < 4:
        return Kernel(lattice, cutoff)
    codec = _codec_for(lattice, cutoff)
    index, u_units, ubar_units = codec.index, codec.u_units, codec.ubar_units
    nums: dict[int, int] = {}
    for k1, k2, k3 in itertools.product(codec.modes, repeat=3):
        j4 = index.get(tuple(a - b + c for a, b, c in zip(k1, k2, k3)))
        if j4 is None:
            continue
        key = (4 * codec.unit + u_units[index[k1]] + u_units[index[k3]]
               + ubar_units[index[k2]] + ubar_units[j4])
        nums[key] = nums.get(key, 0) + 1
    return Kernel(lattice, cutoff, nums, 4)


def _index(nums: dict, codec: _Codec) -> dict:
    """Entries of a kernel by the index j of each mode of their u factors.

    An entry is (degree, key less one u_j and one degree, numerator times
    the exponent of u_j).  Each list is sorted by degree, so a caller
    stops at the first entry above its degree limit.
    """
    shift, unit, block = codec.shift, codec.unit, codec.block
    fields, u_units = codec.fields, codec.u_units
    by_u: dict[int, list] = {}
    # keys sort by degree
    for key in sorted(nums):
        c = nums[key]
        d = key >> shift
        for j, e in fields[key & block]:
            by_u.setdefault(j, []).append((d, key - unit - u_units[j], c * e))
    return by_u


def _contract(x: dict, y_by_u: dict, codec: _Codec, cutoff: int, sign: int,
              out: dict) -> None:
    """Add sign * Q(x, y) to out, numerators keyed by packed monomial.

    Q(x, y) = sum_k d_{ubar_k} x d_{u_k} y pairs the ubar factors of x
    with the u factors of y; y is given by its ``_index``.
    """
    shift, unit, block, ubar_shift = (codec.shift, codec.unit, codec.block,
                                      codec.ubar_shift)
    fields, ubar_units = codec.fields, codec.ubar_units
    for key1, c1 in x.items():
        # m2 contributes only if deg(m1) + deg(m2) - 2 <= cutoff
        limit = cutoff + 2 - (key1 >> shift)
        for j, e in fields[key1 >> ubar_shift & block]:
            entries = y_by_u.get(j)
            if entries is None:
                continue
            base = key1 - unit - ubar_units[j]
            c = c1 * (sign * e)
            for d2, key2, c2 in entries:
                if d2 > limit:
                    break
                key = base + key2
                out[key] = out.get(key, 0) + c * c2


def poisson_bracket(a: Kernel, b: Kernel) -> Kernel:
    """{a, b} = i sum_k (d_{u_k} a d_{ubar_k} b - d_{u_k} b d_{ubar_k} a).

    Exact.  With Q the contraction of ``_contract``, {iA, iB} =
    i*(Q(A, B) - Q(B, A)): two contractions of the numerator maps into
    one, over the denominator a.den * b.den.  Each operand is indexed by
    the modes of its u factors once per call, so only monomial pairs
    that share a contractible mode are visited, and a pair whose bracket
    degree deg(m1) + deg(m2) - 2 exceeds the cutoff is dropped before
    its key is built.
    """
    a._check_compatible(b)
    cutoff, codec = a.max_degree, a._codec
    out: dict = {}
    _contract(a.nums, _index(b.nums, codec), codec, cutoff, 1, out)
    _contract(b.nums, _index(a.nums, codec), codec, cutoff, -1, out)
    return Kernel(a.lattice, cutoff, out, a.den * b.den)


class ResonantSplit(NamedTuple):
    res: Kernel
    nonres: Kernel


def split_resonant(a: Kernel, cfg: ResonanceConfig) -> ResonantSplit:
    """Partition by |phase| <= threshold versus |phase| > threshold."""
    res, nonres = {}, {}
    codec_phase, resonant = a._codec.phase, cfg.resonant
    for key, c in a.nums.items():
        (res if resonant(codec_phase(key)) else nonres)[key] = c
    return ResonantSplit(Kernel(a.lattice, a.max_degree, res, a.den),
                         Kernel(a.lattice, a.max_degree, nonres, a.den))


def apply_phase_filter(a: Kernel, cfg: ResonanceConfig) -> Kernel:
    """Scale non-resonant monomials by 1/(2*phase); drop resonant ones.

    The new denominator is a.den times the lcm of the divisors 2*|phase|.
    """
    codec_phase, resonant = a._codec.phase, cfg.resonant
    kept = {}
    for key, c in a.nums.items():
        p = codec_phase(key)
        if not resonant(p):
            kept[key] = (c, 2 * p)
    lcm = math.lcm(*(q for _, q in kept.values()))
    return Kernel(a.lattice, a.max_degree, {
        key: c * (lcm // q) for key, (c, q) in kept.items()
    }, a.den * lcm)
