import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from birkhoff.hamiltonian import (
    GENERATOR_SCALE,
    H0_FILTER_FACTOR,
    Kernel,
    ModeLattice,
    Monomial,
    ResonanceConfig,
    _codec_for,
    apply_phase_filter,
    h0,
    h1,
    poisson_bracket,
    split_resonant,
)

LAT1 = ModeLattice(1, 1)
LAT2 = ModeLattice(1, 2)
N0 = ResonanceConfig(0)


def mono(u, ubar):
    return Monomial.of([(a,) for a in u], [(b,) for b in ubar])


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


LAT_2D = ModeLattice(2, 1)
nonzero_fractions = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.integers(1, 5),
)


@st.composite
def kernels_2d(draw, cutoff):
    """Kernels on LAT_2D with nonzero coefficients."""
    modes = st.sampled_from(LAT_2D.modes())
    entries = {}
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, cutoff // 2))
        u = draw(st.lists(modes, min_size=n, max_size=n))
        ubar = draw(st.lists(modes, min_size=n, max_size=n))
        entries[Monomial.of(u, ubar)] = draw(nonzero_fractions)
    return Kernel.of(LAT_2D, cutoff, entries)


@st.composite
def bracket_operands_2d(draw):
    # a pair of degrees d1 + d2 - 2 lands on both sides of these cutoffs
    cutoff = draw(st.sampled_from((4, 6, 8)))
    return draw(kernels_2d(cutoff)), draw(kernels_2d(cutoff))


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
    @given(bracket_operands_2d())
    def test_against_naive_differentiator_2d(self, operands):
        a, b = operands
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
            assert (
                apply_phase_filter(a, cfg).support()
                == split_resonant(a, cfg).nonres.support()
            )

    def test_filter_inverse(self):
        a = h1(LAT2, 4)
        filtered = apply_phase_filter(a, N0)
        back = Kernel.of(
            a.lattice, a.max_degree,
            {m: c * Fraction(2 * m.phase()) for m, c in filtered.items()},
        )
        assert back == split_resonant(a, N0).nonres

    def test_key_identity_h1(self):
        for K in (1, 2):
            lat = ModeLattice(1, K)
            for n in (0, 3):
                cfg = ResonanceConfig(n)
                a = h1(lat, 6)
                lhs = poisson_bracket(h0(lat, 6), apply_phase_filter(a, cfg))
                rhs = split_resonant(a, cfg).nonres.scale(H0_FILTER_FACTOR)
                assert lhs == rhs

    def test_key_identity_random(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_kernel(rng, cutoff=10, zero_momentum=False)
            lhs = poisson_bracket(h0(LAT2, 10), apply_phase_filter(a, N0))
            rhs = split_resonant(a, N0).nonres.scale(H0_FILTER_FACTOR)
            assert lhs == rhs

    def test_generator_scale_pinned(self):
        assert H0_FILTER_FACTOR == Fraction(1, 4)
        assert GENERATOR_SCALE == Fraction(-4)
        a = h1(LAT2, 6)
        gen = apply_phase_filter(a, N0).scale(GENERATOR_SCALE)
        assert poisson_bracket(h0(LAT2, 6), gen) == -split_resonant(a, N0).nonres


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
        # the only bad mode sits in the ubar of the second monomial
        with pytest.raises(ValueError, match=r"mode \(2,\) outside lattice"):
            Kernel.of(LAT1, 4, {
                mono([1], [1]): 1,
                mono([0, 1], [-1, 2]): 1,
            })

    def test_equality_needs_the_same_cutoff(self):
        a = Kernel.of(LAT1, 4, {mono([1], [1]): 1})
        b = Kernel.of(LAT1, 6, {mono([1], [1]): 1})
        assert a != b and a == b.with_cutoff(4)

    def test_with_cutoff_zero_rejected(self):
        # an invalid cutoff, not a request to keep the old one
        with pytest.raises(ValueError):
            h1(LAT2, 6).with_cutoff(0)

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

    def test_monomial_needs_balance(self):
        with pytest.raises(ValueError):
            Monomial.of([(1,)], [])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((4, 6, 8)).flatmap(kernels_2d))
def test_part_maps_round_trip(k):
    assert Kernel.of(LAT_2D, k.max_degree, dict(k.items())) == k
    assert all(c for _, c in k.items())
    assert k.support() == {m for m, _ in k.items()}


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
        assert codec.monomial(codec.encode(m)) == m


@settings(max_examples=200, deadline=None)
@given(codec_cases())
def test_key_order_is_degree_order(case):
    lat, cutoff, monomials = case
    codec = _codec_for(lat, cutoff)
    keys = sorted(codec.encode(m) for m in monomials)
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
        key = codec.encode(m)
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


def test_codec_tables_are_per_codec():
    # block 0b10 is one factor of mode 0 at field width 1 (cutoff 2) but
    # two factors of mode -1 at width 2 (cutoff 4)
    narrow, wide = _codec_for(LAT1, 2), _codec_for(LAT1, 4)
    assert (narrow.w, wide.w) == (1, 2)
    assert narrow.factors[0b10] == ((0,),)
    assert wide.factors[0b10] == ((-1,), (-1,))
    assert (narrow.norm[0b10], wide.norm[0b10]) == (0, 2)
    assert (narrow.fields[0b10], wide.fields[0b10]) == (((1, 1),), ((0, 2),))
