import itertools
import json
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from birkhoff._codec import _Codec
from birkhoff._value import Value
from birkhoff.evaluator import EvalConfig
from birkhoff.hamiltonian import (
    GENERATOR_SCALE,
    H0_FILTER_FACTOR,
    Kernel,
    ModeLattice,
    Monomial,
    ResonanceConfig,
    _PIECE,
    _codec_for,
    _mirror,
    apply_phase_filter,
    h0,
    h1,
    poisson_bracket,
    split_resonant,
)
from birkhoff.oracle import birkhoff_iterate

LAT1 = ModeLattice(1, 1)
LAT2 = ModeLattice(1, 2)
N0 = ResonanceConfig(0)


def mono(u, ubar):
    return Monomial.of([(a,) for a in u], [(b,) for b in ubar])


def unchecked(u, ubar):
    """A ``Monomial`` of 1-D modes built past its constructor's checks,
    as a caller's own value could be."""
    m = Monomial.__new__(Monomial)
    Value.__init__(m, tuple((a,) for a in u), tuple((b,) for b in ubar))
    return m


def packed(codec, m):
    """The key of monomial m under codec."""
    return codec.key(m.u, m.ubar)


def kernel(lat, cutoff, entries):
    """The kernel with coefficient i*c on each (monomial, c) entry."""
    return Kernel.of(lat, cutoff, dict(entries))


class TestGenerators:
    def test_h0_small(self):
        k = h0(LAT1, 6)
        assert k.support() == {mono([1], [1]), mono([-1], [-1])}
        assert k.coefficient(mono([1], [1])) == Fraction(1, 2)

    def test_h0_zero_mode_dropped(self):
        assert len(h0(LAT2, 4)) == 4

    def test_h0_degree(self):
        assert h0(LAT2, 8).term_degree() == 2

    def test_h1_trivial_lattice(self):
        k = h1(ModeLattice(1, 0), 4)
        assert k.support() == {mono([0, 0], [0, 0])}
        assert k.coefficient(mono([0, 0], [0, 0])) == Fraction(1, 4)

    def test_h1_momentum_conservation(self):
        for m in h1(LAT2, 4).support():
            assert m.momentum() == (0,)

    def test_h1_folded_coefficient(self):
        # two ordered representatives (1,0,-1,0) and (-1,0,1,0)
        k = h1(LAT1, 4)
        assert k.coefficient(mono([1, -1], [0, 0])) == Fraction(1, 2)

    def test_h1_against_tuple_scan(self):
        acc = {}
        for k1, k2, k3, k4 in itertools.product(LAT2.modes(), repeat=4):
            if k1[0] - k2[0] + k3[0] - k4[0]:
                continue
            key = Monomial.of([k1, k3], [k2, k4])
            acc[key] = acc.get(key, Fraction(0)) + Fraction(1, 4)
        built = h1(LAT2, 4)
        assert built.support() == set(acc)
        for m, c in acc.items():
            assert built.coefficient(m) == c


class TestPhase:
    def test_examples(self):
        assert mono([1, 0], [1, 0]).phase() == 0
        assert mono([2, 0], [1, 0]).phase() == 3
        for m in h0(LAT2, 4).support():
            assert m.phase() == 0

    def test_multidim_euclidean(self):
        m = Monomial.of([(1, 2)], [(2, 0)])
        assert m.phase() == 1 + 4 - 4
        assert m.momentum() == (-1, 2)


def naive_bracket(a, b):
    """Term-wise differentiation with explicit factor lists; removes one
    occurrence at a time instead of using multiplicities."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            ua, uba = list(m1.u), list(m1.ubar)
            ub, ubb = list(m2.u), list(m2.ubar)
            for sign, xu, xb, yu, yb in (
                (1, ua, uba, ub, ubb),
                (-1, ub, ubb, ua, uba),
            ):
                for i, ki in enumerate(xu):
                    for j, kj in enumerate(yb):
                        if ki != kj:
                            continue
                        u = xu[:i] + xu[i + 1:] + yu
                        v = xb + yb[:j] + yb[j + 1:]
                        if len(u) + len(v) > a.max_degree:
                            continue
                        # i * (i c1) * (i c2) = -i * c1 * c2
                        key = Monomial.of(u, v)
                        out[key] = out.get(key, 0) - sign * c1 * c2
    return Kernel.of(a.lattice, a.max_degree, out)


def random_kernel(rng, lat=LAT2, cutoff=12, terms=3, max_half=3,
                  zero_momentum=False):
    entries = {}
    for _ in range(terms):
        n = rng.randint(1, max_half)
        u = [(rng.randint(-lat.radius, lat.radius),) for _ in range(n)]
        if zero_momentum:
            v = list(u)
            rng.shuffle(v)
        else:
            v = [(rng.randint(-lat.radius, lat.radius),) for _ in range(n)]
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        entries[Monomial.of(u, v)] = c
    return Kernel.of(lat, cutoff, entries)


nonzero_fractions = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.integers(1, 5),
)


# every rational, zero among them; built once, as st.fractions() builds
# and checks a strategy on every draw
rationals = st.builds(Fraction, st.integers(), st.integers(min_value=1))


@st.composite
def term_maps(draw, lat, cutoff, summed=False):
    """Monomial -> c maps on lat within the cutoff: up to 6 monomials,
    with coefficients of any size, zeros among them.  A map to be summed
    over G has at most 2 at dim 3, where |G| = 48."""
    modes = st.sampled_from(lat.modes())
    terms = {}
    for _ in range(draw(st.integers(0, 2 if summed and lat.dim == 3 else 6))):
        n = draw(st.integers(1, cutoff // 2))
        u = [draw(modes) for _ in range(n)]
        ubar = [draw(modes) for _ in range(n)]
        terms[Monomial.of(u, ubar)] = draw(rationals)
    return terms


class TestBracket:
    def test_self_bracket_vanishes(self):
        rng = random.Random(0)
        for _ in range(20):
            a = random_kernel(rng)
            assert poisson_bracket(a, a).is_zero

    def test_against_naive_differentiator(self):
        rng = random.Random(1)
        for _ in range(60):
            a, b = random_kernel(rng), random_kernel(rng)
            assert poisson_bracket(a, b) == naive_bracket(a, b)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_against_naive_differentiator_2d(self, data):
        # a pair of degrees d1 + d2 - 2 lands on both sides of these cutoffs
        lat = SWAP_LATTICES[2]
        cutoff = data.draw(st.sampled_from((4, 6, 8)))
        a, b = (Kernel.of(lat, cutoff, data.draw(term_maps(lat, cutoff)))
                for _ in range(2))
        assert poisson_bracket(a, b) == naive_bracket(a, b)

    def test_absolute_sign(self):
        # {h0, i u_1 ubar_0} = (i/2) u_1 ubar_0: of the two modes only u_1
        # meets h0's (i/2)|k|^2, and a global sign flip turns this around
        m = mono([1], [0])
        got = poisson_bracket(h0(LAT1, 4), kernel(LAT1, 4, [(m, 1)]))
        assert got == kernel(LAT1, 4, [(m, Fraction(1, 2))])

    @pytest.mark.parametrize("cutoff", [4, 6, 8, 14, 16])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    def test_full_field_against_naive(self, end, dim, cutoff):
        # the output holds cutoff/2 copies of the first or last mode in one
        # block, filling that mode's field; 4, 6, 8, 14 and 16 put the
        # count at 2**w - 1 or 2**(w - 1) for the field width w.  A carry
        # out of the last mode's field would reach the next block or the
        # degree.
        lat = ModeLattice(dim, 1)
        modes = lat.modes()
        k, j = modes[end], modes[len(modes) // 2]
        h = cutoff // 2
        for u_side in (True, False):
            def term(u, ubar):
                u, ubar = (u, ubar) if u_side else (ubar, u)
                return Kernel.of(lat, cutoff,
                                 {Monomial.of(u, ubar): 1})
            a = term([k] * (h - 1), [j] * (h - 1))
            b = term([k, j], [j, j])
            got = poisson_bracket(a, b)
            assert got == naive_bracket(a, b)
            full = Monomial.of([k] * h, [j] * h)
            if not u_side:
                full = Monomial(full.ubar, full.u)
            assert full in got.support()

    def test_explicit_quartic_pair(self):
        a = kernel(LAT1, 6, [(mono([1, 0], [1, 1]), 1)])
        b = kernel(LAT1, 6, [(mono([1, 1], [0, 1]), 2)])
        got = poisson_bracket(a, b)
        assert got == naive_bracket(a, b)
        assert not got.is_zero
        assert got.term_degree() == 6

    @pytest.mark.parametrize("dim, radius, cutoff", [(1, 2, 8), (2, 1, 6)])
    def test_degree_window_against_naive(self, dim, radius, cutoff):
        # the oracle's operands: H and h0 + F_1 + ... + F_m each carry
        # every even degree 2..cutoff, cut to 6 monomials per degree, and
        # their degree slices; a slice pair with deg a + deg b - 2 at the
        # cutoff is kept, and one at the cutoff + 2 meets an empty window
        cfg = EvalConfig(ModeLattice(dim, radius), N0, cutoff)
        result = birkhoff_iterate(cutoff // 2 - 1, cfg)
        h, g = result.normal_form, cfg.h0()
        for f in result.f_list:
            g = g + f
        degrees = range(2, cutoff + 1, 2)
        operands = []
        for whole in (h, g):
            slices = [Kernel.of(cfg.lattice, cutoff,
                                dict(whole.degree_slice(d).items()[:6]))
                      for d in degrees]
            assert all(slices)
            operands.append([sum(slices[1:], slices[0]), *slices])
        zero = Kernel(cfg.lattice, cutoff)
        kept = 0
        for a, b in itertools.product(*operands):
            for x, y in ((a, b), (b, a)):
                x_nums, y_nums = dict(x.nums), dict(y.nums)
                got = poisson_bracket(x, y)
                assert got == naive_bracket(x, y)
                assert (x.nums, y.nums) == (x_nums, y_nums)
                edge = x.min_term_degree() + y.min_term_degree() - 2
                if edge > cutoff:
                    assert got == zero
                kept += edge == cutoff and not got.is_zero
        assert kept

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poisson_bracket(h0(LAT1, 4), h0(LAT2, 4))
        with pytest.raises(ValueError):
            poisson_bracket(h0(LAT1, 4), h0(LAT1, 6))

    def test_cutoff_is_eager(self):
        a = h1(LAT1, 4)
        assert poisson_bracket(a, a).is_zero  # degree 6 > cutoff 4

    def test_degree_law(self):
        a = h1(LAT2, 12)
        b = poisson_bracket(a, a)
        assert b.term_degree() <= 6

    def test_jacobi_small(self):
        rng = random.Random(2)
        for _ in range(25):
            a = random_kernel(rng, terms=2, max_half=2, cutoff=14)
            b = random_kernel(rng, terms=2, max_half=2, cutoff=14)
            c = random_kernel(rng, terms=2, max_half=2, cutoff=14)
            total = (
                poisson_bracket(a, poisson_bracket(b, c))
                + poisson_bracket(b, poisson_bracket(c, a))
                + poisson_bracket(c, poisson_bracket(a, b))
            )
            assert total.is_zero


def swapped(k):
    """σk: u and ubar swapped in every monomial, built from ``items``."""
    return Kernel.of(k.lattice, k.max_degree,
                     {Monomial(m.ubar, m.u): c for m, c in k.items()})


def monomial_parity(k):
    """s = ±1 if swapping u and ubar maps k to s times itself, checked
    monomial by monomial, else 0; +1 for the zero kernel."""
    for s in (1, -1):
        if all(k.coefficient(Monomial(m.ubar, m.u)) == s * c
               for m, c in k.items()):
            return s
    return 0


def declared(k, group, parity):
    """The kernel k, built from outside, as a producer declares it: its
    orbit sums under ``group`` (the codec's G or its trivial group) and
    swap parity ``parity``, passed through the constructor's own
    arguments.  Both are first checked naively on the full map: summed
    over G it is |G| times itself, and σ maps it to ``parity`` times
    itself (for parity 0, to no multiple of itself)."""
    terms, order = dict(k.items()), len(lattice_group(k.lattice.dim))
    if group.order > 1:
        assert symmetrized(terms) == {m: c * order for m, c in terms.items()}
    assert k.is_zero or monomial_parity(k) == parity
    return Kernel(k.lattice, k.max_degree, group.fold(k.nums), k.den, group,
                  parity)


SWAP_LATTICES = {1: ModeLattice(1, 2), 2: ModeLattice(2, 1),
                 3: ModeLattice(3, 1)}


@st.composite
def swap_operands(draw, lat, cutoff, parity):
    """A random kernel A from outside, of parity 0, if parity is 0; else
    A + parity * σA, declared with that parity, under the trivial
    group."""
    k = Kernel.of(lat, cutoff, draw(term_maps(lat, cutoff)))
    if not parity:
        return k
    return declared(k + swapped(k).scale(parity),
                    _codec_for(lat, cutoff).trivial, parity)


class TestSwapParity:
    def test_examples(self):
        m, mirror = mono([1], [0]), mono([0], [1])
        # a kernel from outside has parity 0, whatever its map, and so
        # does the zero kernel built bare
        assert Kernel(LAT1, 4).swap_parity() == 0
        for entries in ([(m, 1), (mirror, 1)], [(m, 1), (mirror, -1)],
                        [(mono([1, -1], [1, -1]), 3)]):
            k = kernel(LAT1, 4, entries)
            assert k.swap_parity() == 0
            assert Kernel.from_json(k.to_json()).swap_parity() == 0
        # h0 and h1 are even, a filtered h1 is odd, and the split, degree
        # slices and multiples keep the parity
        even, odd = h1(LAT2, 6), apply_phase_filter(h1(LAT2, 6), N0)
        assert h0(LAT2, 6).swap_parity() == even.swap_parity() == 1
        assert odd.swap_parity() == -1
        for k in (even, odd):
            s = k.swap_parity()
            assert {part.swap_parity()
                    for part in split_resonant(k, N0)} == {s}
            assert k.degree_slice(4).swap_parity() == s
            assert k.scale(Fraction(-2, 3)).swap_parity() == s
        # a sum keeps a shared parity, and has 0 for two
        assert (even + even).swap_parity() == 1
        assert (odd + odd.scale(2)).swap_parity() == -1
        assert (even + odd).swap_parity() == 0
        assert (even + kernel(LAT2, 6, [(m, 1), (mirror, 1)])
                ).swap_parity() == 0
        # a bracket carries -s_A s_B, even when it vanishes
        for k in (h0(LAT2, 6), even, odd):
            zero = poisson_bracket(k, k)
            assert zero.is_zero
            assert zero.swap_parity() == -k.swap_parity() ** 2
        assert poisson_bracket(even, kernel(LAT2, 6, [(m, 1)])
                               ).swap_parity() == 0

    # (parity of a, parity of b): both, one or neither operand declared
    @pytest.mark.parametrize("parities", [(1, 1), (1, -1), (-1, -1),
                                          (1, 0), (0, -1), (0, 0)],
                             ids=lambda p: f"{p[0]:+d}{p[1]:+d}")
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bracket_against_naive(self, dim, parities):
        lat = SWAP_LATTICES[dim]
        sa, sb = parities

        @settings(max_examples=40, deadline=None)
        @given(data=st.data())
        def check(data):
            # cutoffs 4, 6 and 8 put deg a + deg b - 2 on both sides of
            # the cutoff, so windows are cut and pairs dropped
            cutoff = data.draw(st.sampled_from((4, 6, 8)))
            a, b = (data.draw(swap_operands(lat, cutoff, p))
                    for p in parities)
            got = poisson_bracket(a, b)
            assert got == naive_bracket(a, b)
            # the parity the bracket declares, against its terms
            assert got.swap_parity() == -sa * sb
            if sa and sb:
                assert got.is_zero or monomial_parity(got) == -sa * sb

        check()


def lattice_group(dim):
    """G: every permutation and sign flip of dim mode coordinates, as
    maps of one mode."""
    return [lambda k, perm=perm, signs=signs: tuple(
        s * k[i] for s, i in zip(signs, perm))
        for perm in itertools.permutations(range(dim))
        for signs in itertools.product((1, -1), repeat=dim)]


def moved(m, g):
    return Monomial.of(map(g, m.u), map(g, m.ubar))


# each monomial's images under G, filled one orbit at a time
IMAGES = {}


def images(m):
    """m's image under each g in G.  Every monomial of m's orbit has the
    same images, in another order, so the first one met fills the entries
    of all of them."""
    if m not in IMAGES:
        found = [moved(m, g) for g in lattice_group(len(m.u[0]))]
        IMAGES.update(dict.fromkeys(found, found))
    return IMAGES[m]


def symmetrized(terms):
    """The sum of g·terms over G, a Monomial -> c map, zeros dropped: at
    each monomial x, the sum of terms over the images of x, which is one
    sum for every monomial of x's orbit."""
    out = {}
    for m in terms:
        if m not in out:
            found = images(m)
            out.update(dict.fromkeys(found, sum(terms.get(x, 0)
                                                for x in found)))
    return {m: c for m, c in out.items() if c}


def orbits(terms):
    return {frozenset(images(m)) for m in terms}


def expanded(k):
    """k held one key per monomial, under the trivial group, with parity
    0."""
    trivial = _codec_for(k.lattice, k.max_degree).trivial
    return Kernel(k.lattice, k.max_degree, k.group.expand(k.nums),
                  k.den * k.group.order, trivial)


@st.composite
def invariant_kernels(draw, lat, cutoff, parity):
    """A random kernel summed over its G-images; plus parity times its
    mirror if parity is ±1, else one with no parity.  It is declared
    under G with that parity."""
    terms = symmetrized(draw(term_maps(lat, cutoff, summed=True)))
    if parity:
        for m, c in list(terms.items()):
            mirror = Monomial(m.ubar, m.u)
            terms[mirror] = terms.get(mirror, 0) + parity * c
    k = Kernel.of(lat, cutoff, terms)
    assume(parity or k.is_zero or monomial_parity(k) == 0)
    return declared(k, _codec_for(lat, cutoff).group, parity)


@st.composite
def blocks(draw, lat, n):
    """n modes for one exponent block: drawn at random, or with a
    nontrivial stabilizer in G: one mode n times, pairs k, -k, or the
    whole G-orbit of a mode (at dim 2 the four unit modes)."""
    modes = lat.modes()
    k = draw(st.sampled_from(modes))
    minus = tuple(-c for c in k)
    orbit = sorted({g(k) for g in lattice_group(lat.dim)})
    kinds = [draw(st.lists(st.sampled_from(modes), min_size=n, max_size=n)),
             [k] * n, ([k, minus] * n)[:n]]
    if len(orbit) == n:
        kinds.append(orbit)
    return draw(st.sampled_from(kinds))


class TestGroupTables:
    """The group's tables against G acting on modes: ``images`` against
    each g's image of a block's factors, encoded again; ``fold`` and the
    mirror against the least key of each orbit; ``sizes`` and ``expand``
    against the orbit's size."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_against_naive(self, dim, data):
        lat, gs = SWAP_LATTICES[dim], lattice_group(dim)
        # a fresh codec, so its tables hold only what this example fills
        codec = _Codec(lat, 8)
        group = codec.group
        assert group.order == len(gs)
        n = data.draw(st.integers(1, 4))
        ubar = data.draw(blocks(lat, n))
        u = data.draw(st.one_of(st.just(ubar), blocks(lat, n)))
        m = Monomial.of(u, ubar)
        orbit = {packed(codec, moved(m, g)) for g in gs}
        least = min(orbit)
        assert group.fold(dict.fromkeys(orbit, 1)) == {least: len(orbit)}
        for key in orbit:
            assert group.fold({key: 1}) == {least: 1}
        assert group.sizes([least]) == [len(orbit)]
        assert group.expand({least: len(orbit)}) == dict.fromkeys(
            orbit, group.order)
        # σ maps the orbit onto the one of the swapped monomial, whose
        # least key the mirror finds; an orbit its own mirror is doubled
        mirror = min(packed(codec, moved(Monomial(m.ubar, m.u), g))
                     for g in gs)
        assert _mirror({least: 1}, group, -1) == (
            {least: 2} if mirror == least else {least: 1, mirror: 1})
        # every block the images table holds, the sub-blocks its fills
        # reached on the way included
        for block, images in group.images.items():
            assert images == tuple(
                sum(codec.u_units[codec.index[g(k)]]
                    for k in codec.factors[block]) for g in gs)


class TestOrbits:
    """A kernel invariant under G holds one key per orbit; every
    operation on it must equal the same operation on the kernel held
    whole, and keep G."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_operations_match_expanded(self, dim, data):
        lat = SWAP_LATTICES[dim]
        cutoff = data.draw(st.sampled_from((4, 6, 8)))
        parities = st.sampled_from((1, -1, 0))
        a, b = (data.draw(invariant_kernels(lat, cutoff, data.draw(parities)))
                for _ in range(2))
        codec = _codec_for(lat, cutoff)
        assert a.group is b.group is codec.group
        ea, eb = expanded(a), expanded(b)
        assert ea.group is eb.group is codec.trivial
        cfg = ResonanceConfig(data.draw(st.integers(0, 3)))
        q = data.draw(nonzero_fractions)
        d = data.draw(st.sampled_from(range(2, cutoff + 1, 2)))
        bracket = poisson_bracket(a, b)
        pairs = [
            (bracket, poisson_bracket(ea, eb)),
            (a + b, ea + eb),
            (a - b, ea - eb),
            (a.scale(q), ea.scale(q)),
            (apply_phase_filter(a, cfg), apply_phase_filter(ea, cfg)),
            *zip(split_resonant(a, cfg), split_resonant(ea, cfg)),
            (a.degree_slice(d), ea.degree_slice(d)),
        ]
        for got, want in pairs:
            assert got.group is codec.group and want.group is codec.trivial
            assert got == want and want == got
            assert got.items() == want.items()
            # the parity each operation declares, against its terms
            s = got.swap_parity()
            assert got.is_zero or not s or monomial_parity(got) == s
        assert bracket == naive_bracket(a, b)
        # a mixed pair runs under the trivial group, and a sum stays
        # there (a zero term returns the other as it is)
        assert poisson_bracket(a, eb) == bracket
        assert a + eb == a + b
        if not (a.is_zero or b.is_zero):
            assert (a + eb).group is codec.trivial

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("invariant", [True, False],
                             ids=["invariant", "plain"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_boundary_reads_the_full_map(self, dim, invariant, data):
        # every radius up to 2 (1 at dim 3) and every cutoff up to 12
        lat = ModeLattice(dim, data.draw(st.integers(0, 2 if dim < 3 else 1)))
        cutoff = data.draw(st.sampled_from(range(2, 13, 2)))
        drawn = data.draw(term_maps(lat, cutoff, summed=invariant))
        if invariant:
            drawn = symmetrized(drawn)
        terms = {m: c for m, c in drawn.items() if c}
        k = Kernel.of(lat, cutoff, drawn)
        codec = _codec_for(lat, cutoff)
        # a map from outside is held whole, whatever its symmetry, and
        # its zeros are dropped
        assert k.group is codec.trivial and len(k.nums) == len(terms)
        if invariant:
            k = declared(k, codec.group, monomial_parity(k))
            assert len(k.nums) == len(orbits(terms))
        assert len(k) == len(terms)
        # in the order of one packed int of degree and block ranks
        ordered = sorted(terms.items(), key=lambda mc: mc[0].sort_key())
        assert k.items() == ordered
        assert Kernel.of(lat, cutoff, dict(k.items())) == k
        assert k.support() == set(terms)
        for m, c in terms.items():
            assert k.coefficient(m) == c
        data_json = k.to_json()
        assert data_json["terms"] == [{**m.to_json(), "re": "0", "im": str(c)}
                                      for m, c in ordered]
        # the text the ledger writer lays out, and read back
        text = "".join(k.json_text())
        assert first_difference(text, json.dumps(data_json, sort_keys=True,
                                                 indent=2)) is None
        assert Kernel.from_json(json.loads(text)) == k
        # equal across the two representations, and only when equal
        whole = expanded(k)
        assert whole == k and k == whole
        back = Kernel.from_json(data_json)
        assert back == k and back.group is codec.trivial
        assert (back.nums, back.den) == (whole.nums, whole.den)
        if not terms:
            # the G-images cancelled or every coefficient was zero: the
            # zero kernel, with no term to move or drop
            assert k.is_zero
            return
        m = min(terms, key=Monomial.sort_key)
        for gm in images(m):
            assert k.coefficient(gm) == terms.get(gm, 0)
        full = dict(whole.nums)
        full.pop(min(full))
        fewer = Kernel(lat, cutoff, full, whole.den, codec.trivial)
        assert fewer != k and k != fewer
        assert k.scale(2) != whole and whole != k.scale(2)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_group_order(self, dim):
        group = _codec_for(ModeLattice(dim, 1), 4).group
        assert group.order == 2 ** dim * math.factorial(dim)
        # on the one-mode lattice G moves nothing
        assert _codec_for(ModeLattice(dim, 0), 4).group.order == 1

    def test_engine_kernels_carry_g(self):
        cfg = EvalConfig(ModeLattice(2, 1), N0, 6)
        oracle = birkhoff_iterate(2, cfg)
        group = _codec_for(cfg.lattice, cfg.cutoff).group
        for k in (h0(cfg.lattice, 6), h1(cfg.lattice, 6), oracle.normal_form,
                  *oracle.f_list):
            assert k.group is group and len(k.nums) < len(k)

    def test_orbit_examples(self):
        group = _codec_for(LAT1, 4).group
        # the orbit of u_1 ubar_1 under k -> -k holds u_-1 ubar_-1 too;
        # from outside the pair is held whole, and declared, as one orbit
        pair = {mono([1], [1]): 1, mono([-1], [-1]): 1}
        k = kernel(LAT1, 4, pair.items())
        assert k.group.order == 1 and len(k.nums) == 2
        k = declared(k, group, 1)
        assert k.group.order == 2 and len(k.nums) == 1 and len(k) == 2
        # a key its own image is an orbit of one
        k = declared(kernel(LAT1, 4, [(mono([1, -1], [1, -1]), 3)]), group, 1)
        assert k.group.order == 2 and len(k) == 1
        # k -> -k fixes ubar_0 and moves u_1: the orbit's sum sits at its
        # least key
        pair = [mono([1], [0]), mono([-1], [0])]
        k = declared(kernel(LAT1, 4, [(m, 1) for m in pair]), group, 0)
        least = min(packed(_codec_for(LAT1, 4), m) for m in pair)
        assert k.nums == {least: 2} and k.den == 1
        # at dim 2 (|G| = 8): u_e ubar_e over the four unit modes e, an
        # orbit of 4 with a stabilizer of 2, and the degree-8 monomial on
        # all four in both u and ubar, an orbit of 1 fixed by all of G
        lat = SWAP_LATTICES[2]
        units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        terms = {Monomial.of([e], [e]): Fraction(3, 5) for e in units}
        terms[Monomial.of(units, units)] = Fraction(-7, 2)
        codec = _codec_for(lat, 8)
        k = declared(Kernel.of(lat, 8, terms), codec.group, 1)
        assert k.group is codec.group and k.group.order == 8
        assert len(k.nums) == 2 and len(k) == 5
        # each orbit holds its sum: 4 * 3/5 and -7/2
        assert sorted(Fraction(w, k.den) for w in k.nums.values()) == [
            Fraction(-7, 2), Fraction(12, 5)]
        for m, c in terms.items():
            assert k.coefficient(m) == c
        ordered = sorted(terms.items(), key=lambda mc: mc[0].sort_key())
        assert k.items() == ordered
        assert "".join(k.json_text()) == json.dumps(k.to_json(),
                                                    sort_keys=True, indent=2)
        back = Kernel.from_json(json.loads("".join(k.json_text())))
        assert back == k and back.group is codec.trivial
        assert len(back.nums) == 5
        # expand gives each key c |G|, over the denominator
        assert {key: Fraction(v, k.den)
                for key, v in k.group.expand(k.nums).items()} == {
            packed(codec, m): 8 * c for m, c in terms.items()}


class TestSplitAndFilter:
    def test_split_partition(self):
        a = h1(LAT2, 4)
        for n in (0, 1, 3):
            res, nonres = split_resonant(a, ResonanceConfig(n))
            assert res + nonres == a
            assert res.support() & nonres.support() == set()
            for m in res.support():
                assert abs(m.phase()) <= n
            for m in nonres.support():
                assert abs(m.phase()) > n

    def test_split_everything_resonant(self):
        a = h1(LAT2, 4)
        big = ResonanceConfig(1000)
        res, nonres = split_resonant(a, big)
        assert res == a and nonres.is_zero

    def test_split_phase_zero_example(self):
        res, _ = split_resonant(h1(LAT1, 4), N0)
        assert mono([1, -1], [1, -1]) in res.support()

    def test_filter_scaling_example(self):
        m = mono([2], [1])  # phase 3
        a = kernel(LAT2, 4, [(m, Fraction(1, 4))])
        out = apply_phase_filter(a, N0)
        assert out.coefficient(m) == Fraction(1, 24)

    def test_filter_support_matches_nonres(self):
        a = h1(LAT2, 4)
        for n in (0, 3):
            cfg = ResonanceConfig(n)
            _, nonres = split_resonant(a, cfg)
            assert apply_phase_filter(a, cfg).support() == nonres.support()

    def test_filter_inverse(self):
        a = h1(LAT2, 4)
        filtered = apply_phase_filter(a, N0)
        back = Kernel.of(
            a.lattice, a.max_degree,
            {m: c * Fraction(2 * m.phase()) for m, c in filtered.items()},
        )
        _, nonres = split_resonant(a, N0)
        assert back == nonres

    def test_key_identity_h1(self):
        for K in (1, 2):
            lat = ModeLattice(1, K)
            for n in (0, 3):
                cfg = ResonanceConfig(n)
                a = h1(lat, 6)
                lhs = poisson_bracket(h0(lat, 6), apply_phase_filter(a, cfg))
                _, nonres = split_resonant(a, cfg)
                rhs = nonres.scale(H0_FILTER_FACTOR)
                assert lhs == rhs

    def test_key_identity_random(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_kernel(rng, cutoff=10, zero_momentum=False)
            lhs = poisson_bracket(h0(LAT2, 10), apply_phase_filter(a, N0))
            _, nonres = split_resonant(a, N0)
            rhs = nonres.scale(H0_FILTER_FACTOR)
            assert lhs == rhs

    def test_generator_scale_pinned(self):
        assert H0_FILTER_FACTOR == Fraction(1, 4)
        assert GENERATOR_SCALE == Fraction(-4)
        a = h1(LAT2, 6)
        gen = apply_phase_filter(a, N0).scale(GENERATOR_SCALE)
        _, nonres = split_resonant(a, N0)
        assert poisson_bracket(h0(LAT2, 6), gen) == -nonres


class TestKernelValue:
    def test_additive_inverse(self):
        a = h1(LAT2, 4)
        assert (a + (-a)).is_zero
        assert a - a == Kernel(LAT2, 4)

    def test_insertion_order_irrelevant(self):
        rng = random.Random(4)
        a = h1(LAT2, 4)
        items = a.items()
        for _ in range(5):
            rng.shuffle(items)
            assert Kernel.of(LAT2, 4, dict(items)) == a

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            Kernel.of(LAT1, 2, {mono([1, 1], [0, 2]): 1})
        with pytest.raises(ValueError):
            Kernel.of(LAT1, 4, {mono([2], [2]): 1})
        with pytest.raises(ValueError):
            Kernel(LAT1, 3, {})
        # u_1^3 ubar_1^3 by hand, since ``_Codec.key`` refuses it
        codec = _codec_for(LAT1, 4)
        j = codec.index[(1,)]
        key = (6 << codec.shift) + 3 * (codec.u_units[j] + codec.ubar_units[j])
        with pytest.raises(ValueError, match="degree 6 above cutoff"):
            Kernel(LAT1, 4, {key: 1})
        # the only bad mode sits in the ubar of the second monomial
        with pytest.raises(ValueError, match=r"mode \(2,\) outside lattice"):
            Kernel.of(LAT1, 4, {
                mono([1], [1]): 1,
                mono([0, 1], [-1, 2]): 1,
            })
        # a zero denominator, under a nonzero map and under an empty one
        key = packed(codec, mono([1], [1]))
        for nums in ({key: 1}, {}):
            with pytest.raises(ValueError, match="den must be nonzero"):
                Kernel(LAT1, 4, nums, 0)

    def test_coefficients_stay_rational(self):
        # a float would be held as its binary fraction, and a string parsed
        k = h0(LAT1, 4)
        for factor in (0.1, "1/3", Decimal("0.5")):
            with pytest.raises(TypeError, match="is not rational"):
                k.scale(factor)
        for c in (0.5, Decimal("0.5")):
            with pytest.raises(TypeError, match="is not rational"):
                Kernel.of(LAT1, 4, {mono([1], [1]): c})

    def test_lattice_and_threshold_bounds(self):
        with pytest.raises(ValueError, match="dim must be positive"):
            ModeLattice(0, 1)
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            ModeLattice(1, -1)
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            ResonanceConfig(-1)

    def test_negative_den_moves_its_sign(self):
        codec = _codec_for(LAT2, 4)
        a, b = (packed(codec, mono([1], [1])), packed(codec, mono([2], [2])))
        k = Kernel(LAT2, 4, {a: 1, b: -3}, -2)
        assert k == Kernel(LAT2, 4, {a: -1, b: 3}, 2)
        assert k.den == 2 and k.nums == {a: -1, b: 3}

    def test_off_lattice_coefficient_is_zero(self):
        assert h1(LAT1, 4).coefficient(mono([0, 2], [1, 1])) == 0

    def test_equality_needs_the_same_cutoff(self):
        a = Kernel.of(LAT1, 4, {mono([1], [1]): 1})
        b = Kernel.of(LAT1, 6, {mono([1], [1]): 1})
        assert a != b and a == b.with_cutoff(4)

    def test_with_cutoff_zero_rejected(self):
        # an invalid cutoff, not a request to keep the old one
        with pytest.raises(ValueError):
            h1(LAT2, 6).with_cutoff(0)

    def test_zero_coefficients_get_no_pass(self):
        # every monomial is checked before the zeros are dropped, and the
        # ways in agree: ``of`` and ``from_json`` refuse it with one
        # message, and ``coefficient`` reads 0.  Of two faults, the first
        # of factor counts, degree and lattice is named.
        assert 4 >> _codec_for(LAT1, 4).w  # an exponent 4 would carry
        held = h1(LAT1, 4)
        for m, message in [
            (mono([2], [2]), r"mode \(2,\) outside lattice"),
            (mono([0, 0, 0], [0, 0, 0]), "degree 6 above cutoff"),
            (mono([1] * 4, [1] * 4), "degree 8 above cutoff"),
            (unchecked([0], [0, 0]), "equally many u and ubar"),
            (mono([2] * 3, [2] * 3), "degree 6 above cutoff"),
            (unchecked([2] * 3, [0, 0]), "equally many u and ubar"),
        ]:
            data = Kernel.of(LAT1, 4, {mono([1], [1]): 1}).to_json()
            data["terms"].append({**m.to_json(), "re": "0", "im": "0"})
            errors = []
            for build in (lambda: Kernel.of(LAT1, 4, {m: Fraction(0)}),
                          lambda: Kernel.from_json(data)):
                with pytest.raises(ValueError, match=message) as caught:
                    build()
                errors.append(str(caught.value))
            assert errors[0] == errors[1]
            assert held.coefficient(m) == 0

    def test_monomial_listed_twice(self):
        # two orderings of one monomial's factors pack to one key; ``of``
        # refuses the second, as ``from_json`` does, rather than keep it
        first = Monomial(((1,), (0,)), ((0,), (1,)))
        again = Monomial(((0,), (1,)), ((0,), (1,)))
        assert first != again
        data = Kernel.of(LAT1, 4, {}).to_json()
        data["terms"] = [{**m.to_json(), "re": "0", "im": str(c)}
                         for m, c in ((first, 1), (again, 2))]
        errors = []
        for build in (lambda: Kernel.of(LAT1, 4, {first: 1, again: 2}),
                      lambda: Kernel.from_json(data)):
            with pytest.raises(ValueError, match="listed twice") as caught:
                build()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_zero_dropped(self):
        m = mono([1], [1])
        k = Kernel.of(LAT1, 4, {m: Fraction(0)})
        assert k.is_zero and len(k) == 0
        imag = Kernel.of(LAT1, 4, {m: 1})
        assert dict(imag.items()) == {m: 1}
        data = imag.to_json()
        data["terms"][0]["re"] = "1"
        with pytest.raises(ValueError, match="real part"):
            Kernel.from_json(data)

    def test_json_round_trip(self):
        a = h1(LAT2, 4) + h0(LAT2, 4)
        data = a.to_json()
        assert data["dim"] == 1 and data["radius"] == 2
        assert Kernel.from_json(data) == a

    @pytest.mark.parametrize("key, text", [
        ("im", "1e400"), ("im", "2.0"), ("im", "+2"), ("im", " 2 "),
        ("im", "2_0"), ("im", "2\n"), ("im", "\u0662"), ("im", "4/+2"),
        ("re", "0.0"), ("re", "0e5"),
    ])
    def test_json_reads_only_the_written_form(self, key, text):
        # Fraction reads each of these, and would expand "1e99999999" in
        # full, digit by digit
        data = Kernel.of(LAT1, 4, {mono([1], [1]): 2}).to_json()
        data["terms"][0][key] = text
        with pytest.raises(ValueError, match="Invalid literal"):
            Kernel.from_json(data)

    @pytest.mark.parametrize("re_text, im_text, value", [
        ("0", "-1/3", Fraction(-1, 3)), ("0/7", "4/2", 2), ("-0", "02", 2),
    ])
    def test_json_reads_the_written_form(self, re_text, im_text, value):
        m = mono([1], [1])
        data = Kernel.of(LAT1, 4, {m: 1}).to_json()
        data["terms"][0].update(re=re_text, im=im_text)
        assert Kernel.from_json(data) == Kernel.of(LAT1, 4, {m: value})

    def test_monomial_needs_balance(self):
        with pytest.raises(ValueError):
            Monomial.of([(1,)], [])


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_phase_additivity_single_contraction(x, y, z):
    # single-monomial kernels sharing exactly one contraction index
    shared = (z,)
    a = Kernel.of(LAT2, 20, {Monomial.of([(x,)], [shared]): 1})
    b = Kernel.of(
        LAT2, 20, {Monomial.of([shared, shared], [(y,), (y,)]): 1}
    )
    pa = next(iter(a.support())).phase()
    pb = next(iter(b.support())).phase()
    for m in poisson_bracket(a, b).support():
        assert m.phase() == pa + pb


@st.composite
def codec_cases(draw):
    """A lattice of dim 1-3, a cutoff in 4..20 and monomials within it,
    among them cutoff/2 copies of one mode in the u or the ubar block."""
    dim = draw(st.integers(1, 3))
    lat = ModeLattice(dim, draw(st.integers(0, 2 if dim < 3 else 1)))
    cutoff = draw(st.sampled_from(range(4, 21, 2)))
    modes = st.sampled_from(lat.modes())
    monomials = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, cutoff // 2))
        monomials.append(Monomial.of(
            draw(st.lists(modes, min_size=n, max_size=n)),
            draw(st.lists(modes, min_size=n, max_size=n)),
        ))
    full, rest = [draw(modes)] * (cutoff // 2), draw(
        st.lists(modes, min_size=cutoff // 2, max_size=cutoff // 2))
    monomials += [Monomial.of(full, rest), Monomial.of(rest, full)]
    return lat, cutoff, monomials


@settings(max_examples=200, deadline=None)
@given(codec_cases())
def test_codec_round_trip(case):
    lat, cutoff, monomials = case
    codec = _codec_for(lat, cutoff)
    for m in monomials:
        assert codec.monomial(packed(codec, m)) == m


@settings(max_examples=200, deadline=None)
@given(codec_cases())
def test_key_order_is_degree_order(case):
    lat, cutoff, monomials = case
    codec = _codec_for(lat, cutoff)
    keys = sorted(packed(codec, m) for m in monomials)
    degrees = [codec.monomial(key).degree for key in keys]
    assert degrees == sorted(m.degree for m in monomials)
    k = Kernel.of(lat, cutoff, {m: 1 for m in monomials})
    assert (k.min_term_degree(), k.term_degree()) == (degrees[0], degrees[-1])


@settings(max_examples=200, deadline=None)
@given(codec_cases())
def test_codec_tables_match_direct_walk(case):
    # every field read off the bits one by one, against the tables
    lat, cutoff, monomials = case
    codec = _codec_for(lat, cutoff)
    modes, w = lat.modes(), codec.w
    for m in monomials:
        key = packed(codec, m)
        blocks = (key & codec.block, key >> codec.ubar_shift & codec.block)
        for block, factors in zip(blocks, (m.u, m.ubar)):
            walk = [(j, block >> (w * j) & codec.mask)
                    for j in range(len(modes))]
            walk = tuple((j, e) for j, e in walk if e)
            assert codec.fields[block] == walk
            assert list(walk) == sorted(
                (modes.index(k), n) for k, n in Counter(factors).items())
            assert codec.factors[block] == factors
            assert codec.norm[block] == sum(
                e * sum(c * c for c in modes[j]) for j, e in walk)
        assert codec.phase(key) == m.phase()


@st.composite
def kernels_of_dim(draw, dim):
    """Kernels of term maps on a lattice of the given dim: every radius up
    to 2 (1 at dim 3) and every cutoff up to 12."""
    lat = ModeLattice(dim, draw(st.integers(0, 2 if dim < 3 else 1)))
    cutoff = draw(st.sampled_from(range(2, 13, 2)))
    return Kernel.of(lat, cutoff, draw(term_maps(lat, cutoff)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_round_trip_by_dim(dim, data):
    # from the dict and from the text the ledger writer lays out
    k = data.draw(kernels_of_dim(dim))
    assert Kernel.from_json(k.to_json()) == k
    assert Kernel.from_json(json.loads("".join(k.json_text()))) == k


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_items_in_sort_key_order(dim, data):
    # the keys are sorted by one packed int of degree and block ranks
    monomials = [m for m, _ in data.draw(kernels_of_dim(dim)).items()]
    assert monomials == sorted(monomials, key=Monomial.sort_key)


@settings(max_examples=100, deadline=None)
@given(kernels_of_dim(2))
def test_part_maps_round_trip(k):
    # zero coefficients are dropped on the way in
    assert Kernel.of(k.lattice, k.max_degree, dict(k.items())) == k
    assert all(c for _, c in k.items())
    assert k.support() == {m for m, _ in k.items()}


def nested_layout(k, depth):
    """``json.dumps`` of k nested ``depth`` levels deep in a document."""
    return json.dumps(k.to_json(), sort_keys=True, indent=2).replace(
        "\n", "\n" + "  " * depth)


def first_difference(got, want):
    """(line number, got line, want line) where the texts first differ,
    or None: pytest's own diff of two long texts takes minutes."""
    lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((n, a, b) for n, (a, b) in enumerate(lines) if a != b),
                None)


# an engine kernel of several pieces per dim: h1 at dim 3, else a bracket
# with its phase-filtered self
WIDE = {
    1: (ModeLattice(1, 4), 6),
    2: (ModeLattice(2, 1), 6),
    3: (ModeLattice(3, 1), 4),
}


class TestJsonPieces:
    """``json_text`` in pieces of at most ``_PIECE`` terms, its fixed text
    from tables that every kernel of one codec and depth shares."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pieces_join_to_the_layout(self, dim):
        lat, cutoff = WIDE[dim]
        engine = h1(lat, cutoff)
        if dim < 3:
            engine = poisson_bracket(engine, apply_phase_filter(engine, N0))
        group = _codec_for(lat, cutoff).group
        outside = Kernel.of(lat, cutoff, dict(engine.items()))
        k = declared(outside, group, engine.swap_parity())
        # orbits a g beyond the identity fixes: their images repeat
        assert min(group.sizes(k.nums)) < group.order
        assert len(k) > 2 * _PIECE
        terms = len(k)
        # one codec, each depth in turn, and each depth again
        for kernel, depth in itertools.product((k, outside), (0, 1, 3)):
            pieces = list(kernel.json_text(depth))
            assert first_difference("".join(pieces),
                                    nested_layout(kernel, depth)) is None
            # full pieces, the rest, and the list's close
            assert [p.count('"im": ') for p in pieces] == [
                min(_PIECE, terms - n) for n in range(0, terms, _PIECE)] + [0]

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_zero_kernel(self, depth):
        zero = Kernel(LAT2, 4)
        assert list(zero.json_text(depth)) == [nested_layout(zero, depth)]


def test_codec_tables_are_per_codec():
    # block 0b10 is one factor of mode 0 at field width 1 (cutoff 2) but
    # two factors of mode -1 at width 2 (cutoff 4)
    narrow, wide = _codec_for(LAT1, 2), _codec_for(LAT1, 4)
    assert (narrow.w, wide.w) == (1, 2)
    assert narrow.factors[0b10] == ((0,),)
    assert wide.factors[0b10] == ((-1,), (-1,))
    assert (narrow.norm[0b10], wide.norm[0b10]) == (0, 2)
    assert (narrow.fields[0b10], wide.fields[0b10]) == (((1, 1),), ((0, 2),))
