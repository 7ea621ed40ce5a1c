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

Inside a kernel a monomial is one packed int, its key (see ``_codec``,
which also holds ``Monomial`` and the lattice group G), and the
rationals c are int numerators over one common int denominator.

A kernel is stored one key per orbit of the group its producer
declares.  h0, h1, the cutoff, the degree and the phase are invariant
under G, every permutation and sign flip of the mode coordinates; the
momentum is not, but it is equivariant (the momentum of g m is g
applied to that of m), so G keeps zero momentum; and the bracket
commutes with G.  So every kernel the engine builds is invariant: h0
and h1 declare G, each producer passes its operands' group on, and the
kernel holds at each orbit's least key, its representative, the sum of
the orbit's coefficients: 6.5x fewer keys than monomials in the
brackets of ``verify --m 2 --ell 4`` at dim 2, K 1.  A kernel read or
built from outside holds every key, under the trivial group; no map is
tested for symmetry.  Sums, multiples, the phase filter, the resonant
split, degree slices and degree windows act on the orbit sums as they
are.
``Monomial`` and the rational c of each i*c appear only at the
boundary, where every orbit is expanded and its sum divided by its
size.  ``Kernel.of`` is the one way in from monomials, and
``with_cutoff`` builds through it; ``from_json`` sums each term's key
straight from its ``u``/``ubar`` lists through the codec's unit tables,
as ``h0`` and ``h1`` do, and makes no ``Monomial``.  ``items`` is the
way out, and ``to_json`` and ``with_cutoff`` read it; ``coefficient``
folds one monomial onto its representative, and ``support`` lists the
monomials.  ``items`` and ``json_text``, which writes the text of
``to_json`` a few hundred terms at a time, share one walk, ``_rows``:
it expands each orbit, divides its sum once, and sorts the keys by one
int, the degree and the ranks of the two blocks.

The bracket is the hot path, and it stays exact.  It is built on one
contraction, Q(x, y) = sum_k d_{ubar_k} x d_{u_k} y, which pairs the
conjugate factors of x with the u factors of y; {iA, iB} =
i*(Q(A, B) - Q(B, A)).  Per call, each operand is cut to its degree
window (a monomial of degree d pairs only with one of degree <= cutoff
+ 2 - d, so one key bound set by the other operand's least degree);
the second operand's window is expanded to full keys and indexed by
each mode of its u factors, so only monomial pairs that contract are
visited; pairs past the degree cutoff are dropped before a key is
built, so no exponent field can carry into the next.  Only the first
operand's orbit sums w_r = |Orb r| A_r are contracted, and each key of
the output is added to its representative: for invariant A and B,
Q(A, B) and sum_r w_r Q(r, B) have the same sum over each orbit, so
nothing is weighted or divided.  Swapping u and ubar (σ, which keeps
the degree) gives σQ(x, y) = Q(σy, σx).  Every kernel the engine builds
is mapped to s times itself by σ, s = ±1 its swap parity, so Q(B, A) =
s_A s_B σQ(A, B) is the mirror of Q(A, B) and costs no second
contraction; σ maps each orbit onto one of the same size, so each key's
mirror is the representative of its swapped key, which the group's
tables give in one lookup.  The mirror step drops the zeros it
makes (each cancellation, and every self-mirrored orbit when s_A s_B =
+1), and {A, B} carries its parity -s_A s_B.  Every producer declares
its parity, so no kernel is checked term by term; a kernel from outside
has parity 0, none known, and gets the second contraction.

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
import math
import re
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Mapping

from ._codec import Mode, Monomial, _Codec, _codec_for, _Group, _json_tables
from ._value import Value

# {h0, apply_phase_filter(A, cfg)} == H0_FILTER_FACTOR * nonres(A).
H0_FILTER_FACTOR = Fraction(1, 4)
# scale turning a filtered kernel into a flow generator:
# {h0, GENERATOR_SCALE * apply_phase_filter(A, cfg)} == -nonres(A).
GENERATOR_SCALE = -1 / H0_FILTER_FACTOR


class ModeLattice(Value):
    """Integer modes with every coordinate in [-radius, radius]."""

    __slots__ = ("dim", "radius")

    def __init__(self, dim: int, radius: int) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        Value.__init__(self, dim, radius)

    def modes(self) -> list[Mode]:
        r = range(-self.radius, self.radius + 1)
        return [tuple(k) for k in itertools.product(r, repeat=self.dim)]

    def __contains__(self, mode: Mode) -> bool:
        return len(mode) == self.dim and all(
            abs(c) <= self.radius for c in mode
        )


class ResonanceConfig(Value):
    """Threshold N: monomials with |phase| <= N count as resonant."""

    __slots__ = ("threshold",)

    def __init__(self, threshold: int = 0) -> None:
        if threshold < 0:
            raise ValueError("threshold must be nonnegative")
        Value.__init__(self, threshold)

    def resonant(self, phase: int) -> bool:
        """The one resonance rule: |phase| <= N."""
        return abs(phase) <= self.threshold


_PIECE = 256  # the most terms in one piece of ``Kernel.json_text``

# the coefficient form that ``_ratio`` writes; ``_read_ratio`` reads no other
_RATIO = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _ratio(c: int, den: int) -> str:
    """c/den in lowest terms, as ``str(Fraction(c, den))`` writes it."""
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _read_ratio(term: dict, part: str) -> tuple[int, int]:
    """The (numerator, denominator) of a term's "re" or "im" string."""
    text = term[part]
    # JSON strings in the written form only: int would take " 2 " and
    # "2_0", and Fraction 2.0, true, "+2" and "1e99999999" (in full)
    if type(text) is not str:
        raise ValueError(f"{part} must be a string: {text!r}")
    if not _RATIO.fullmatch(text):
        raise ValueError(f"Invalid literal for {part}: {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator: {term}")
    return int(num), int(den or 1)


def _check_cutoff(max_degree: int) -> None:
    if max_degree < 2 or max_degree % 2:
        raise ValueError("max_degree must be an even integer >= 2")


class Kernel:
    """Immutable finite map Monomial -> purely imaginary coefficient i*c.

    The coefficient of the monomial with packed key ``key`` is
    i * nums[rep] / (den |Orb rep|), rep the representative of key's
    orbit under the kernel's ``group``: ``nums`` holds each orbit's sum
    at its representative, in canonical form: every numerator is a
    nonzero int, ``den`` is a positive int, and gcd(den, *nums) == 1.
    The group is the one its producer declares: the codec's G, every
    permutation and sign flip of the mode coordinates, or the trivial
    group, whose orbits are single keys.  So equal kernels under one
    group hold equal maps and denominators.

    The constructor takes keys of the (lattice, max_degree) codec and
    tests nothing about the map's symmetry.  Every kernel the engine
    builds is invariant (h0, h1, the cutoff and the phase are, and the
    bracket commutes with G): h0 and h1 declare G, and each producer
    passes on its operands' group with ``nums`` already one per orbit.
    A kernel from outside (``Kernel.of``, ``from_json``) and a sum of
    kernels under two groups hold every key, under the trivial group.
    At the boundary every orbit is expanded, and only there is its sum
    divided by its size: ``items()``, ``json_text``'s pieces, ``support()`` and
    ``len()`` see one monomial per key, as if the full map were held, so
    ``len()`` counts monomials, not orbits; ``coefficient()`` folds one
    key onto its representative, and ``==`` compares two kernels of
    different groups by their full maps.  At the boundary a coefficient
    is the ``Fraction`` c that stands for i*c: ``Kernel.of`` takes a
    Monomial -> c map, ``items()`` and ``coefficient()`` return c, and
    ``from_json`` reads c from the "im" string of each term and refuses
    an "re" that does not read as zero.  The cutoff ``max_degree`` is
    even, and no monomial exceeds it.

    σ swaps u and ubar in every monomial.  ``swap_parity()`` is the
    parity its producer declared: s = ±1 when σA = sA, 0 when none is
    known, as for every kernel from outside, whatever its map.  h0 and h1
    are even, the phase filter flips the parity, the resonant split,
    degree slices and rational multiples keep it, a sum keeps the parity
    its two terms share and has 0 otherwise, and a bracket of kernels of
    parities s_A and s_B has parity -s_A s_B.
    """

    __slots__ = ("lattice", "max_degree", "nums", "den", "group", "_codec",
                 "_parity")

    def __init__(self, lattice: ModeLattice, max_degree: int,
                 nums: Mapping[int, int] | None = None, den: int = 1,
                 group: _Group | None = None, parity: int = 0):
        """nums maps the representatives of ``group`` to orbit sums,
        as the producer declares them; no group means the trivial one,
        whose representatives are the full keys.  ``parity`` is the swap
        parity the producer knows, 0 if it knows none."""
        _check_cutoff(max_degree)
        if not den:
            raise ValueError("den must be nonzero")
        self.lattice = lattice
        self.max_degree = max_degree
        self._codec = codec = _codec_for(lattice, max_degree)
        if not nums:
            nums = {}
        elif 0 in nums.values():
            nums = {key: c for key, c in nums.items() if c}
        else:
            nums = dict(nums)
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
        self.group = codec.trivial if group is None else group
        self._parity = parity

    @staticmethod
    def of(lattice: ModeLattice, max_degree: int,
           terms: Mapping[Monomial, Rational]) -> "Kernel":
        """The kernel with coefficient i*c on each monomial m, for the
        rationals c = terms[m]; the inverse of ``items()``.  Every
        monomial is checked, then zeros are dropped."""
        _check_cutoff(max_degree)
        modes: set[Mode] = set()
        for m, c in terms.items():
            if not isinstance(c, Rational):
                raise TypeError(f"coefficient {c!r} is not rational")
            if m.degree > max_degree:
                raise ValueError(f"monomial degree {m.degree} above cutoff")
            modes.update(m.u)
            modes.update(m.ubar)
        # each distinct mode is checked once; the smallest bad one is named
        bad = [mode for mode in modes if mode not in lattice]
        if bad:
            raise ValueError(f"mode {min(bad)} outside lattice")
        codec = _codec_for(lattice, max_degree)
        den = math.lcm(*(c.denominator for c in terms.values()))
        return Kernel(lattice, max_degree, {
            codec.encode(m): c.numerator * (den // c.denominator)
            for m, c in terms.items()
        }, den)

    def _made(self, nums: dict, den: int, parity: int) -> "Kernel":
        """A kernel on this one's codec and group from representatives."""
        return Kernel(self.lattice, self.max_degree, nums, den, self.group,
                      parity)

    def _held(self, group: _Group) -> tuple[dict, int]:
        """The numerators under ``group``, this kernel's own or the
        trivial one, with their denominator: ``nums`` over ``den``, or
        every key of each orbit over den |G| (see ``_Group.expand``)."""
        if group is self.group:
            return self.nums, self.den
        return self.group.expand(self.nums), self.den * self.group.order

    def _rows(self, value, u_map, b_map) -> list[tuple]:
        """(value(numerator, den), u_map[u block], b_map[ubar block]) for
        every monomial, in ``Monomial.sort_key`` order: by one int of the
        degree and the ranks of the two blocks.  Each orbit is expanded,
        and ``value`` called once per orbit, with ``den`` times its size."""
        codec = self._codec
        rank, block, ubar_shift = codec.rank, codec.block, codec.ubar_shift
        shift, bits = codec.shift, codec.rank_bits
        images, nums = self.group.images, self.nums
        rows = {}
        for (key, c), n in zip(nums.items(), self.group.sizes(nums)):
            v = value(c, self.den * n)
            d = key >> shift << bits
            for b, u in zip(images[key >> ubar_shift & block],
                            images[key & block]):
                rows[(d | rank[u]) << bits | rank[b]] = (v, u_map[u], b_map[b])
        return [rows[k] for k in sorted(rows)]

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """(m, c) pairs in ``Monomial.sort_key`` order; i*c is the
        coefficient of m."""
        factors = self._codec.factors
        return [(Monomial(u, b), c)
                for c, u, b in self._rows(Fraction, factors, factors)]

    def coefficient(self, m: Monomial) -> Fraction:
        """The c of m's coefficient i*c; 0 for a monomial not held."""
        codec = self._codec
        if m.degree > self.max_degree or not all(
            k in codec.index for k in (*m.u, *m.ubar)
        ):
            return Fraction(0)
        key, = self.group.fold({codec.encode(m): 0})
        n, = self.group.sizes([key])
        return Fraction(self.nums.get(key, 0), self.den * n)

    def swap_parity(self) -> int:
        """The parity its producer declared: s = +1 or -1 if swapping u
        and ubar maps this kernel to s times itself, 0 if none is known."""
        return self._parity

    def support(self) -> set[Monomial]:
        monomial = self._codec.monomial
        return {monomial(key) for key in self._held(self._codec.trivial)[0]}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __len__(self) -> int:
        """The number of monomials held, which is not the number of
        representatives unless the group is trivial."""
        return sum(self.group.sizes(self.nums))

    def term_degree(self) -> int:
        """Largest monomial degree present; 0 for the zero kernel."""
        return max(self.nums) >> self._codec.shift if self.nums else 0

    def min_term_degree(self) -> int:
        return min(self.nums) >> self._codec.shift if self.nums else 0

    def degree_slice(self, d: int) -> "Kernel":
        shift = self._codec.shift
        return self._made({
            key: c for key, c in self.nums.items() if key >> shift == d
        }, self.den, self._parity)

    def with_cutoff(self, max_degree: int) -> "Kernel":
        return Kernel.of(self.lattice, max_degree, {
            m: c for m, c in self.items() if m.degree <= max_degree})

    def _check_compatible(self, other: "Kernel") -> None:
        if self.lattice != other.lattice or self.max_degree != other.max_degree:
            raise ValueError("kernel lattice/cutoff mismatch")

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check_compatible(other)
        if not other.nums:
            return self
        if not self.nums:
            return other
        # a mixed pair adds full maps, under the trivial group
        group = (self.group if self.group is other.group
                 else self._codec.trivial)
        (a, da), (b, db) = self._held(group), other._held(group)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        nums = dict(a) if fa == 1 else {key: c * fa for key, c in a.items()}
        for key, c in b.items():
            nums[key] = nums.get(key, 0) + c * fb
        parity = self._parity if self._parity == other._parity else 0
        return Kernel(self.lattice, self.max_degree, nums, den, group, parity)

    def __neg__(self) -> "Kernel":
        return self.scale(-1)

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + (-other)

    def scale(self, factor: Rational) -> "Kernel":
        """Multiply every coefficient by a rational."""
        if not isinstance(factor, Rational):
            raise TypeError(f"factor {factor!r} is not rational")
        n = factor.numerator
        return self._made({
            key: c * n for key, c in self.nums.items()
        }, self.den * factor.denominator, self._parity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        if (self.lattice != other.lattice
                or self.max_degree != other.max_degree):
            return False
        if self.group is other.group:
            return self.den == other.den and self.nums == other.nums
        trivial = self._codec.trivial
        (a, da), (b, db) = self._held(trivial), other._held(trivial)
        return a.keys() == b.keys() and all(
            c * db == b[key] * da for key, c in a.items())

    def __repr__(self) -> str:
        return f"Kernel({len(self)} terms, cutoff {self.max_degree})"

    def to_json(self) -> dict:
        return {
            "dim": self.lattice.dim,
            "radius": self.lattice.radius,
            "max_degree": self.max_degree,
            "terms": [{**m.to_json(), "re": "0", "im": str(c)}
                      for m, c in self.items()],
        }

    def json_text(self, depth: int = 0) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json(), sort_keys=True,
        indent=2)``, each line after the first indented 2 * depth more
        spaces, in pieces of at most ``_PIECE`` terms.  A term is four
        parts: its separator and head, its reduced ratio and its two
        blocks' text, from the ``_json_tables`` a codec and depth share."""
        pad = "\n" + "  " * depth
        p1 = pad + "  "
        head, u_text, ubar_text = _json_tables(self._codec, depth)
        rows = self._rows(_ratio, u_text, ubar_text)
        opener = (f'{{{p1}"dim": {self.lattice.dim},{p1}"max_degree": '
                  f'{self.max_degree},{p1}"radius": {self.lattice.radius},'
                  f'{p1}"terms": [')
        parts = [opener]
        for start in range(0, len(rows), _PIECE):
            for row in rows[start:start + _PIECE]:
                parts.append(head)
                parts += row
            if not start:
                parts[1] = head[1:]  # the first term has no separator
            yield "".join(parts)
            parts = []
        yield f"{p1}]{pad}}}" if rows else f"{opener}]{pad}}}"

    @staticmethod
    def from_json(data: dict) -> "Kernel":
        """The kernel ``to_json`` wrote, held whole, with parity 0, as is
        every map from outside.  Each term's key is summed from the
        codec's unit tables, as ``h1`` builds its keys, and each
        coefficient is read with ``int``; every term's modes, types and
        degree are checked before the zeros are dropped."""
        # JSON integers only: 2.0 and true compare equal to 2 and 1
        for key in ("dim", "radius", "max_degree"):
            if type(data[key]) is not int:
                raise ValueError(f"{key} must be an integer: {data[key]!r}")
        lattice = ModeLattice(data["dim"], data["radius"])
        max_degree = data["max_degree"]
        _check_cutoff(max_degree)
        codec = _codec_for(lattice, max_degree)
        index, u_units, ubar_units = codec.index, codec.u_units, codec.ubar_units
        terms: dict[int, tuple[int, int]] = {}
        for entry in data["terms"]:
            u, ubar = entry["u"], entry["ubar"]
            if len(u) != len(ubar) or not u:
                raise ValueError("monomial needs equally many u and ubar "
                                 "factors")
            # above the cutoff an exponent could carry into the next field
            degree = 2 * len(u)
            if degree > max_degree:
                raise ValueError(f"monomial degree {degree} above cutoff")
            key = degree << codec.shift
            for units, factors in ((u_units, u), (ubar_units, ubar)):
                for mode in map(tuple, factors):
                    # JSON integers only: 1.5 would pass the lattice's
                    # |c| <= K, and (1.0,) would find the index of (1,)
                    for c in mode:
                        if type(c) is not int:
                            raise ValueError(
                                f"mode coordinates must be integers: {entry}")
                    j = index.get(mode)
                    if j is None:
                        raise ValueError(f"mode {mode} outside lattice")
                    key += units[j]
            if key in terms:
                raise ValueError(f"monomial {codec.monomial(key)} listed twice")
            real, real_den = _read_ratio(entry, "re")
            terms[key] = _read_ratio(entry, "im")
            if real:
                raise ValueError(f"nonzero real part in {codec.monomial(key)}: "
                                 f"{Fraction(real, real_den)}")
        den = math.lcm(*(d for _, d in terms.values()))
        return Kernel(lattice, max_degree, {
            key: c * (den // d) for key, (c, d) in terms.items()}, den)


def h0(lattice: ModeLattice, cutoff: int) -> Kernel:
    """Kinetic kernel: (i/2) |k|^2 per mode pair (u_k, ubar_k)."""
    codec = _codec_for(lattice, cutoff)
    nums = {
        2 * codec.unit + codec.u_units[j] + codec.ubar_units[j]: n2
        for j, n2 in enumerate(codec.norm2) if n2
    }
    return Kernel(lattice, cutoff, codec.group.fold(nums), 2, codec.group, 1)


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
    return Kernel(lattice, cutoff, codec.group.fold(nums), 4, codec.group, 1)


def _index(nums: dict, codec: _Codec) -> dict:
    """Entries of an operand's ``_window`` by the index j of each mode of
    their u factors.

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
    get = out.get
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
                out[key] = get(key, 0) + c * c2


def _mirror(q: dict, group: _Group, s: int) -> dict:
    """q - s σq, zeros dropped: Q(A, B) - Q(B, A) from q = Q(A, B) alone,
    for operands of parities with product s, q held one key per orbit of
    ``group``.  The result maps σ to -s times itself, so each
    representative and that of its mirror are written together, once,
    from the smaller of the two that q holds.  σ swaps each key's u and
    ubar blocks and commutes with G, so it maps each orbit onto one of the
    same size, whose representative takes the orbit's sum as it is: the
    σq of a key is at the representative of its swapped key, read from
    ``group``'s tables as ``fold`` reads it, with no swapped map built."""
    codec, images, least = group.codec, group.images, group.least
    degree, ubar_shift, block = codec.degree, codec.ubar_shift, codec.block
    out = {}
    for key, c in q.items():
        high, g, low, _ = least[(key & degree) >> ubar_shift | key & block]
        u = images[key >> ubar_shift & block][g]
        mkey = high | (u if low is None else low[u])
        if mkey < key and mkey in q:
            continue
        v = c - s * q.get(mkey, 0)
        if v:
            out[key] = v
            out[mkey] = -s * v
    return out


def _window(x: Kernel, y: Kernel, group: _Group) -> tuple[dict, int]:
    """x's degree window, held under ``group`` with its denominator (see
    ``Kernel._held``): the numerators of degree at most cutoff + 2 -
    (least degree of y), the only ones that can pair with y.  Keys sort
    by degree, so that is one key bound; all of x if all lie below."""
    nums, den = x._held(group)
    end = (x.max_degree + 3 - y.min_term_degree()) << x._codec.shift
    if not nums or max(nums) < end:
        return nums, den
    return {key: c for key, c in nums.items() if key < end}, den


def poisson_bracket(a: Kernel, b: Kernel) -> Kernel:
    """{a, b} = i sum_k (d_{u_k} a d_{ubar_k} b - d_{u_k} b d_{ubar_k} a).

    Exact.  With Q the contraction of ``_contract``, {iA, iB} =
    i*(Q(A, B) - Q(B, A)).  Each operand is cut to its ``_window``; if
    either window is empty the bracket is zero before any index is
    built.  Q(x, y) indexes y by the modes of its u factors, so only
    monomial pairs that share a contractible mode are visited, and a pair
    whose bracket degree deg(m1) + deg(m2) - 2 exceeds the cutoff is
    dropped before its key is built.

    The bracket runs under G when both operands carry it, else under the
    trivial group, each operand's orbits expanded.  Under G, A holds the
    sum w_r = |Orb r| A_r of each orbit, and Q(g m, B) = g Q(m, B) for
    invariant B, so Q(A, B) is the G-average of P = sum_r w_r Q(r, B)
    and has P's sum over each orbit.  So x's sums are contracted as they
    are against y expanded to full keys (|G| times B, over a denominator
    times |G| that ``Kernel`` reduces), and P's fold is the result.

    Swapping u and ubar (σ) gives σQ(x, y) = Q(σy, σx).  So when both
    operands declare a swap parity, s_A and s_B of ``Kernel.swap_parity``
    (which their windows keep, as σ keeps the degree), Q(B, A) =
    s_A s_B σQ(A, B) is the mirror of the first contraction, and one
    contraction does; ``_mirror`` looks up the representative of each
    swapped key and drops the zeros it makes.  If either parity is 0, as
    for a kernel from outside, Q(B, A) is contracted as well, into the
    same P, and ``Kernel`` drops the zeros of the sum.  The result carries
    the parity -s_A s_B, 0 if either is 0.
    """
    a._check_compatible(b)
    cutoff, codec = a.max_degree, a._codec
    group = a.group if a.group is b.group else codec.trivial
    (x, dx), (y, dy) = _window(a, b, group), _window(b, a, group)
    s = a._parity * b._parity
    out: dict = {}
    if x and y:
        expand = group.expand
        _contract(x, _index(expand(y), codec), codec, cutoff, 1, out)
        if not s:
            _contract(y, _index(expand(x), codec), codec, cutoff, -1, out)
        out = group.fold(out)
        if s:
            out = _mirror(out, group, s)
    return Kernel(a.lattice, cutoff, out, dx * dy * group.order, group, -s)


def split_resonant(a: Kernel, cfg: ResonanceConfig) -> tuple[Kernel, Kernel]:
    """The pair (resonant part, non-resonant part) of a: its monomials
    with |phase| <= threshold, and those with |phase| > threshold.  The
    phase is G-invariant, so each orbit goes to one side, and each side
    keeps a's swap parity."""
    res, nonres = {}, {}
    codec_phase, resonant = a._codec.phase, cfg.resonant
    for key, c in a.nums.items():
        (res if resonant(codec_phase(key)) else nonres)[key] = c
    return a._made(res, a.den, a._parity), a._made(nonres, a.den, a._parity)


def apply_phase_filter(a: Kernel, cfg: ResonanceConfig) -> Kernel:
    """Scale non-resonant monomials by 1/(2*phase); drop resonant ones.

    The new denominator is a.den times the lcm of the divisors 2*|phase|.
    σ negates the phase, so the result has the opposite swap parity.
    """
    codec_phase, resonant = a._codec.phase, cfg.resonant
    kept = {}
    for key, c in a.nums.items():
        p = codec_phase(key)
        if not resonant(p):
            kept[key] = (c, 2 * p)
    lcm = math.lcm(*(q for _, q in kept.values()))
    return a._made({
        key: c * (lcm // q) for key, (c, q) in kept.items()
    }, a.den * lcm, -a._parity)
