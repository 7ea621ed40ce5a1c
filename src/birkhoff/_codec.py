"""Monomials, their packed keys, and the lattice group acting on keys.

Inside a kernel a monomial is one packed int, its key.  Each (lattice,
cutoff) has one codec that fixes the layout: with M modes in
``lattice.modes()`` order and a field width w wide enough for any
exponent up to cutoff/2, a key is degree << 2Mw | ubar-block << Mw |
u-block, the exponent of mode j sitting in bits [wj, w(j+1)) of its
block.  Keys sort by degree, the product of two monomials is the sum of
their keys, and a derivative subtracts one shifted unit from a block and
one from the degree.  Each codec decodes an exponent block (the u or the
ubar half of a key) once, into tables keyed by the block int that fill
lazily and live as long as the codec: they hold one entry per distinct
block met: hundreds at dim 1, thousands at dim 2, K 2.  ``_Codec.key``
is the one way from mode tuples to a key, and it checks before it adds:
the factor lists are equally long and not empty, the degree is within
the cutoff (above it an exponent could carry into the next field), and
every mode is on the lattice.

G, the lattice group of every permutation and sign flip of the mode
coordinates (order 2^d d!: 2 at dim 1, 8 at dim 2), permutes the modes
and so the fields of a block.  Each codec holds G as the permutations of
mode indices it makes (``_Codec.group``), with lazy tables of its own:
a block's image under each g, each filled from a block of one factor
fewer by one addition; for a key's degree and ubar block, those of its
representative, the least key of its orbit, and the first g that reaches
them; and, for each stabilizer of a representative's ubar block, a u
block's least image under it.  So a key's representative costs one
lookup in each table.  A map held one key per orbit holds each orbit's
sum at its representative: the group folds a map of full keys onto
those sums by adding, and expands them to every key again, times |G|
(see ``hamiltonian`` for why).

Nothing here is built at import: a codec is built by the first call of
``_codec_for`` for its (lattice, cutoff), its group on first use, and
the JSON text tables of a kernel's terms by ``_json_tables``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import TYPE_CHECKING, Iterable

from ._value import Value

if TYPE_CHECKING:
    from .hamiltonian import ModeLattice

Mode = tuple[int, ...]


def _norm2(mode: Mode) -> int:
    return sum(c * c for c in mode)


class Monomial(Value):
    """u-factors and conjugate factors as sorted mode tuples."""

    __slots__ = ("u", "ubar")

    def __init__(self, u: tuple[Mode, ...], ubar: tuple[Mode, ...]) -> None:
        if len(u) != len(ubar) or not u:
            raise ValueError("monomial needs equally many u and ubar factors")
        Value.__init__(self, u, ubar)

    @staticmethod
    def of(u: Iterable[Mode], ubar: Iterable[Mode]) -> "Monomial":
        return Monomial(tuple(sorted(u)), tuple(sorted(ubar)))

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
    a monomial within the cutoff reaches the next field.  The cutoff is
    even and at least 2, or no codec is made.

    A block is decoded once per codec: ``fields``, ``factors`` and
    ``norm`` are tables keyed by block int, filled on first lookup, so
    each holds one entry per distinct exponent block the codec has met.
    """

    def __init__(self, lattice: ModeLattice, cutoff: int):
        if cutoff < 2 or cutoff % 2:
            raise ValueError("max_degree must be an even integer >= 2")
        self.cutoff = cutoff
        self.modes = modes = lattice.modes()
        self.index = {k: j for j, k in enumerate(modes)}
        self.norm2 = norm2 = [_norm2(k) for k in modes]
        self.w = w = (cutoff // 2).bit_length()
        self.mask = (1 << w) - 1
        self.ubar_shift = len(modes) * w
        self.block = (1 << self.ubar_shift) - 1
        self.shift = 2 * self.ubar_shift
        # the degree bits of a key
        self.degree = -1 << self.shift
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
        # the block's factors' mode indices read as base-M digits, most
        # significant first: among blocks of one length, the order of
        # their factor tuples; every rank lies below 2**rank_bits
        self.rank = _Table(self._rank)
        self.rank_bits = (len(modes) ** (cutoff // 2)).bit_length()

    def _walk(self, block: int) -> tuple[tuple[int, int], ...]:
        w, mask = self.w, self.mask
        out = []
        while block:
            j = ((block & -block).bit_length() - 1) // w
            e = (block >> (w * j)) & mask
            out.append((j, e))
            block -= e << (w * j)
        return tuple(out)

    def _rank(self, block: int) -> int:
        base, rank = len(self.modes), 0
        for j, e in self.fields[block]:
            for _ in range(e):
                rank = rank * base + j
        return rank

    def monomial(self, key: int) -> Monomial:
        """The monomial of a key."""
        return Monomial(self.factors[key & self.block],
                        self.factors[key >> self.ubar_shift & self.block])

    def key(self, u, ubar) -> int:
        """The key of the monomial with the modes ``u`` and ``ubar`` as
        its u and ubar factors, in any order.  It refuses, in this order:
        unequal or empty factor lists, a degree above the cutoff, checked
        before any unit is added, and a mode off the lattice."""
        if len(u) != len(ubar) or not u:
            raise ValueError("monomial needs equally many u and ubar factors")
        degree = 2 * len(u)
        if degree > self.cutoff:
            raise ValueError(f"monomial degree {degree} above cutoff")
        key, index = degree << self.shift, self.index
        for units, factors in ((self.u_units, u), (self.ubar_units, ubar)):
            for mode in factors:
                j = index.get(mode)
                if j is None:
                    raise ValueError(f"mode {mode} outside lattice")
                key += units[j]
        return key

    def phase(self, key: int) -> int:
        return (self.norm[key & self.block]
                - self.norm[key >> self.ubar_shift & self.block])

    @functools.cached_property
    def trivial(self) -> "_Group":
        return _Group(self, [tuple(range(len(self.modes)))])

    @functools.cached_property
    def group(self) -> "_Group":
        """G, every permutation and sign flip of the mode coordinates, as
        the distinct permutations of mode indices it makes; the trivial
        group if that is the identity alone."""
        dim, index = len(self.modes[0]), self.index
        perms = {}
        for order in itertools.permutations(range(dim)):
            for signs in itertools.product((1, -1), repeat=dim):
                perm = tuple(
                    index[tuple(s * k[i] for s, i in zip(signs, order))]
                    for k in self.modes)
                perms.setdefault(perm, None)
        return self.trivial if len(perms) == 1 else _Group(self, list(perms))


class _Group:
    """A group of permutations of mode indices, acting on packed keys.

    g moves the exponent of mode j to mode ``perms[g][j]`` in both blocks
    and keeps the degree.  A key's representative is the least key of its
    orbit: the degree is fixed, so that is the image with the least ubar
    block and, among those, the least u block.  The tables fill lazily,
    like the codec's ``fields``.  ``images`` holds a block's image under
    each g: that of the block less one unit of its lowest mode j, plus
    j's unit images (``units``), added elementwise.  ``least``, keyed by
    a key's bits above its u block (its degree and ubar block), holds
    those bits of its representative, shifted into place, and the first g
    that reaches them; then, if the representative's ubar block has a
    stabilizer S beyond the identity, S's two tables from
    ``stabilizers``, else None for each: a u block's least image under S,
    and the orbit size of a representative with that u block.  Every g
    that takes a ubar block to the least one is that first g followed by
    some h in S, so a key with u block u has representative high |
    images[u][g], or high | low[images[u][g]] with low S's first table.
    A map held one key per orbit holds each orbit's sum; ``fold`` makes
    it from full keys, ``expand`` goes back, and ``sizes`` gives the
    orbit sizes, each in one loop over many keys.  The trivial group
    (the identity alone) runs the same loops: every key is its own
    representative and every orbit size is 1.
    """

    def __init__(self, codec: _Codec, perms: list[tuple[int, ...]]):
        self.codec = codec
        self.order = len(perms)
        # mode j's unit block under each g
        self.units = [tuple(codec.u_units[p[j]] for p in perms)
                      for j in range(len(codec.modes))]
        self.images = _Table(self._images)
        self.images[0] = (0,) * self.order
        self.least = _Table(self._least)
        self.stabilizers = _Table(self._stabilizer)

    def _images(self, block: int) -> tuple[int, ...]:
        # the block less one unit of its lowest mode j, plus j's images:
        # a fill reaches down at most one level per factor of the block
        j = ((block & -block).bit_length() - 1) // self.codec.w
        return tuple(map(operator.add,
                         self.images[block - self.codec.u_units[j]],
                         self.units[j]))

    def _least(self, high: int) -> tuple:
        block = self.codec.block
        images = self.images[high & block]
        low = min(images)
        out = ((high + low - (high & block)) << self.codec.ubar_shift,
               images.index(low))
        if images.count(low) == 1:
            return out + (None, None)
        return out + self.stabilizers[
            tuple(g for g, b in enumerate(self.images[low]) if b == low)]

    def _stabilizer(self, gs: tuple[int, ...]) -> tuple[_Table, _Table]:
        # gs holds at least two g's, so pick gives a tuple
        pick, images, order = operator.itemgetter(*gs), self.images, self.order
        return (_Table(lambda u: min(pick(images[u]))),
                _Table(lambda u: order // pick(images[u]).count(u)))

    def sizes(self, keys: Iterable[int]) -> list[int]:
        """The orbit size of each representative, in order: |G| over its
        stabilizer, the g's in its ubar block's stabilizer (most often the
        identity alone) that fix its u block."""
        least, order = self.least, self.order
        ubar_shift, block = self.codec.ubar_shift, self.codec.block
        out = []
        append = out.append
        for key in keys:
            size = least[key >> ubar_shift][3]
            append(order if size is None else size[key & block])
        return out

    def expand(self, nums: dict) -> dict:
        """Orbit sums to full keys, times |G|: each key of the orbit of a
        representative rho holding the sum w maps to w |Stab rho| = |G| c,
        c = w / |Orb rho| the value of each key of the orbit."""
        codec, images, order = self.codec, self.images, self.order
        degree, ubar_shift, block = codec.degree, codec.ubar_shift, codec.block
        out = {}
        for (key, w), n in zip(nums.items(), self.sizes(nums)):
            d, v = key & degree, w * (order // n)
            for b, u in zip(images[key >> ubar_shift & block],
                            images[key & block]):
                out[d | b << ubar_shift | u] = v
        return out

    def fold(self, nums: dict) -> dict:
        """Full keys to orbit sums: each key's value added to the least key
        of its orbit, in the order each orbit is first met; zeros stay."""
        images, least = self.images, self.least
        ubar_shift, block = self.codec.ubar_shift, self.codec.block
        sums: dict[int, int] = {}
        get = sums.get
        for key, c in nums.items():
            high, g, low, _ = least[key >> ubar_shift]
            u = images[key & block][g]
            key = high | (u if low is None else low[u])
            sums[key] = get(key, 0) + c
        return sums


@functools.cache
def _codec_for(lattice: ModeLattice, cutoff: int) -> _Codec:
    return _Codec(lattice, cutoff)


@functools.cache
def _json_tables(codec: _Codec, depth: int) -> tuple[str, _Table, _Table]:
    """A kernel term's fixed text in ``json.dumps(..., indent=2)`` nested
    ``depth`` levels deep: its separator and head, and two lazy tables of
    a u block's text up to the "ubar" list and a ubar block's to the end."""
    p2, p3, p4, p5 = ("\n" + "  " * (depth + i) for i in range(2, 6))
    item = {k: f"{p4}[{p5}" + f",{p5}".join(map(str, k)) + f"{p4}]"
            for k in codec.modes}.__getitem__
    text = _Table(lambda b: ",".join(map(item, codec.factors[b])))
    return (f',{p2}{{{p3}"im": "',
            _Table(lambda u: f'",{p3}"re": "0",{p3}"u": [{text[u]}{p3}],'
                   f'{p3}"ubar": ['),
            _Table(lambda b: f"{text[b]}{p3}]{p2}}}"))
