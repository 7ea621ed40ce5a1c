import functools
import itertools
import math
from fractions import Fraction

import pytest

from birkhoff import evaluator
from birkhoff.hamiltonian import (
    GENERATOR_SCALE,
    Kernel,
    ModeLattice,
    Monomial,
    ResonanceConfig,
    _codec_for,
    apply_phase_filter,
    h0,
    h1,
    poisson_bracket,
)
from birkhoff.evaluator import (
    EvalConfig,
    cancellation_check,
    f_transform,
    normal_form,
)
from birkhoff.oracle import (
    birkhoff_iterate,
    compare,
    generators_from_recursion,
    sequences,
    taylor_compose,
    truncation_term,
)


def make_cfg(K_radius=2, threshold=0, cutoff=8, dim=1):
    return EvalConfig(
        ModeLattice(dim, K_radius), ResonanceConfig(threshold), cutoff
    )


@pytest.mark.parametrize("entry", [
    normal_form, f_transform, birkhoff_iterate, generators_from_recursion,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("order", [0, 2])
def test_order_rule_at_every_entry_point(entry, order):
    # at cutoff 4 (ell 2) only order 1 fits; order 2 would reach degree 6
    # and give a zero kernel that passes every identity vacuously
    with pytest.raises(ValueError, match=r"need 1 <= m < ell"):
        entry(order, make_cfg(cutoff=4))


class TestSequences:
    def test_3_3_display(self):
        got = {info.z: (info.c, info.q) for info in sequences(3, 3)}
        assert got == {(1, 1, 1): (6, 3), (1, 2): (1, 2), (3,): (1, 1)}

    def test_single_part(self):
        for m in (1, 2, 5):
            (info,) = sequences(1, m)
            assert info.z == (1,) * m
            assert info.c == math.factorial(m) and info.q == m

    def test_2_4_against_naive_tuples(self):
        # all ordered compositions of 4 with parts in {1, 2}, deduplicated
        ordered = [
            z
            for length in range(1, 5)
            for z in itertools.product((1, 2), repeat=length)
            if sum(z) == 4
        ]
        naive = {tuple(sorted(z)) for z in ordered}
        fam = sequences(2, 4)
        assert {info.z for info in fam} == naive
        # multiplicity bookkeeping: q!/c counts the distinct orderings
        for info in fam:
            count = sum(1 for z in ordered if tuple(sorted(z)) == info.z)
            assert count == math.factorial(info.q) // info.c

    def test_lexicographic_order(self):
        for n in range(1, 7):
            for m in range(1, 7):
                zs = [info.z for info in sequences(n, m)]
                assert zs == sorted(zs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sequences(0, 3)
        with pytest.raises(ValueError):
            sequences(3, 0)


class TestTruncationTerm:
    def test_r33_display(self):
        # R_3^3(g) = (1/6){{{g,F1},F1},F1} + {{g,F1},F2} + {g,F3}
        cfg = make_cfg(cutoff=12)
        cfg_big = EvalConfig(cfg.lattice, cfg.resonance, 12)
        f = [
            k.with_cutoff(12)
            for k in generators_from_recursion(3, make_cfg(cutoff=8))
        ]
        g = cfg_big.h0() + cfg_big.h1()
        got = truncation_term(g, 3, 3, f)
        b1 = poisson_bracket(
            poisson_bracket(poisson_bracket(g, f[0]), f[0]), f[0]
        )
        b2 = poisson_bracket(poisson_bracket(g, f[0]), f[1])
        b3 = poisson_bracket(g, f[2])
        want = b1.scale(Fraction(1, 6)) + b2 + b3
        assert got == want

    def test_zero_input(self):
        cfg = make_cfg()
        f = list(generators_from_recursion(2, cfg))
        zero = Kernel(cfg.lattice, cfg.cutoff)
        assert truncation_term(zero, 2, 2, f).is_zero

    def test_r12(self):
        cfg = make_cfg()
        f = list(generators_from_recursion(1, cfg))
        got = truncation_term(cfg.h0(), 1, 2, f)
        want = poisson_bracket(poisson_bracket(cfg.h0(), f[0]), f[0]).scale(
            Fraction(1, 2)
        )
        assert got == want

    def test_needs_enough_generators(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            truncation_term(cfg.h0(), 2, 2, [cfg.h1()])


class TestTaylorCompose:
    def test_zero_generator(self):
        cfg = make_cfg()
        g = cfg.h0() + cfg.h1()
        assert taylor_compose(g, Kernel(cfg.lattice, cfg.cutoff)) == g

    def test_cutoff_saturated(self):
        # with g homogeneous at the cutoff degree every bracket overflows
        cfg = make_cfg(cutoff=4)
        g = cfg.h1()
        f = apply_phase_filter(cfg.h1(), cfg.resonance).scale(GENERATOR_SCALE)
        assert taylor_compose(g, f) == g

    def test_rejects_low_degree_generator(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            taylor_compose(cfg.h1(), cfg.h0())

    def test_first_composition_display(self):
        # g o F1 = g + {h0,F1} + {h1,F1} + (1/2){{h0,F1},F1} at cutoff 6
        cfg = make_cfg(cutoff=6)
        g = cfg.h0() + cfg.h1()
        f1 = apply_phase_filter(cfg.h1(), cfg.resonance).scale(GENERATOR_SCALE)
        got = taylor_compose(g, f1)
        want = (
            g
            + poisson_bracket(cfg.h0(), f1)
            + poisson_bracket(cfg.h1(), f1)
            + poisson_bracket(poisson_bracket(cfg.h0(), f1), f1).scale(
                Fraction(1, 2)
            )
        )
        assert got == want

    def test_sequential_equals_iterate(self):
        cfg = make_cfg(cutoff=8)
        g = cfg.h0() + cfg.h1()
        f1, f2 = birkhoff_iterate(2, cfg).f_list
        assert (
            taylor_compose(taylor_compose(g, f1), f2)
            == birkhoff_iterate(2, cfg).normal_form
        )


class TestBirkhoffIterate:
    def test_f1_matches_filtered_h1(self):
        cfg = make_cfg(cutoff=6)
        result = birkhoff_iterate(1, cfg)
        want = apply_phase_filter(cfg.h1(), cfg.resonance).scale(
            GENERATOR_SCALE
        )
        assert result.f_list[0] == want

    def test_f2_two_term_display(self):
        # F2 = scale * filter({h1, F1} + (1/2){{h0, F1}, F1})
        cfg = make_cfg(cutoff=6)
        f1 = apply_phase_filter(cfg.h1(), cfg.resonance).scale(GENERATOR_SCALE)
        block = poisson_bracket(cfg.h1(), f1) + poisson_bracket(
            poisson_bracket(cfg.h0(), f1), f1
        ).scale(Fraction(1, 2))
        want = apply_phase_filter(block, cfg.resonance).scale(GENERATOR_SCALE)
        assert birkhoff_iterate(2, cfg).f_list[1] == want

    def test_recursion_matches_slices(self):
        cfg = make_cfg(cutoff=8)
        slices = birkhoff_iterate(3, cfg).f_list
        recs = generators_from_recursion(3, cfg)
        for a, b in zip(slices, recs):
            assert a == b

    def test_generator_degree_and_phase(self):
        cfg = make_cfg(threshold=3, cutoff=8)
        for i, f in enumerate(birkhoff_iterate(3, cfg).f_list, start=1):
            for m in f.support():
                assert m.degree == 2 * i + 2
                assert abs(m.phase()) > 3

    def test_low_orders_resonant_after_iteration(self):
        # the normalization itself, checked on each side without the
        # other: after m steps every monomial of degree <= 2m + 2 is
        # resonant.  Non-resonant terms above 2m + 2 (their count pinned
        # per setting) keep the check from passing on a zero kernel.
        for (dim, radius, m, ell, threshold), nonres_above in {
            (1, 2, 2, 4, 0): 302,
            (1, 2, 2, 4, 3): 208,
            (1, 2, 3, 5, 0): 890,
            (1, 2, 2, 5, 0): 1172,
            (2, 1, 2, 4, 0): 3264,
        }.items():
            cfg = make_cfg(radius, threshold, 2 * ell, dim)
            for side, h in (("oracle", birkhoff_iterate(m, cfg).normal_form),
                            ("trees", normal_form(m, cfg).total)):
                setting = (side, dim, radius, m, ell, threshold)
                above = 0
                for mono in h.support():
                    resonant = abs(mono.phase()) <= threshold
                    if mono.degree <= 2 * m + 2:
                        assert resonant, (setting, mono)
                    else:
                        above += not resonant
                assert above == nonres_above, setting

    def test_deterministic(self):
        cfg1, cfg2 = make_cfg(), make_cfg()
        a = birkhoff_iterate(2, cfg1).normal_form
        b = birkhoff_iterate(2, cfg2).normal_form
        assert a == b

    def test_preconditions(self):
        with pytest.raises(ValueError, match="1 <= m < ell"):
            birkhoff_iterate(4, make_cfg())  # m = ell = cutoff / 2
        with pytest.raises(ValueError, match="1 <= m < ell"):
            birkhoff_iterate(0, make_cfg())


class TestCompare:
    def test_equal(self):
        cfg = make_cfg(cutoff=4)
        report = compare(cfg.h1(), cfg.h1())
        assert report.equal and report.residual.is_zero
        assert report.worst_monomials == ()

    def test_single_monomial_difference(self):
        cfg = make_cfg(cutoff=4)
        m = Monomial.of([(1,), (-1,)], [(0,), (0,)])
        bumped = cfg.h1() + Kernel.of(cfg.lattice, 4, {m: Fraction(1, 3)})
        report = compare(cfg.h1(), bumped)
        assert not report.equal
        assert len(report.residual) == 1
        mono, ca, cb = report.worst_monomials[0]
        assert mono == m and cb - ca == Fraction(1, 3)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare(make_cfg().h1(), make_cfg(K_radius=1).h1())

    def test_ties_ranked_by_monomial(self):
        # h1 on the 1-D lattice has many equal coefficients
        cfg = make_cfg(cutoff=4)
        items = cfg.h1().items()
        forward = Kernel.of(cfg.lattice, 4, dict(items))
        backward = Kernel.of(cfg.lattice, 4, dict(reversed(items)))
        zero = Kernel(cfg.lattice, 4)
        report = compare(forward, zero)
        assert report.to_json() == compare(backward, zero).to_json()
        ranked = [m.sort_key() for m, _, _ in report.worst_monomials]
        assert ranked == sorted(ranked)

    def test_ranked_by_magnitude(self):
        # the large negative entry comes second in items() and would come
        # last by signed value; only its magnitude puts it first
        cfg = make_cfg(cutoff=4)
        small = Monomial.of([(-1,)], [(-1,)])
        big = Monomial.of([(1,)], [(1,)])
        residual = Kernel.of(cfg.lattice, 4, {small: Fraction(1, 3), big: -5})
        assert [m for m, _ in residual.items()] == [small, big]
        report = compare(residual, Kernel(cfg.lattice, 4))
        assert report.worst_monomials == (
            (big, -5, 0), (small, Fraction(1, 3), 0)
        )

    def test_json(self):
        report = compare(make_cfg(cutoff=4).h1(), make_cfg(cutoff=4).h1())
        data = report.to_json()
        assert data["equal"] is True
        assert data["residual"]["terms"] == []


class TestCentralVerification:
    def test_range_class_active_case(self):
        # ell - m > 2 exercises the range trees end to end
        cfg = make_cfg(K_radius=1, cutoff=10)
        ledger = normal_form(2, cfg)
        oracle = birkhoff_iterate(2, cfg)
        assert compare(ledger.total, oracle.normal_form).equal

    @pytest.mark.parametrize("dim,K_radius,m,ell,threshold", [
        # the rows at threshold 0 keep the ids they had before the column
        pytest.param(1, 3, 2, 4, 0, id="1-3-2-4"),
        pytest.param(3, 1, 1, 3, 0, id="3-1-1-3"),
        pytest.param(2, 2, 1, 3, 0, id="2-2-1-3"),
        pytest.param(1, 2, 4, 6, 0, id="1-2-4-6"),
        pytest.param(2, 1, 3, 5, 0, id="2-1-3-5"),
        # at dim 2, K 1: the normal form at orders 1 and 2, and F_1..F_3
        # at cutoff 8
        (2, 1, 1, 3, 0), (2, 1, 2, 4, 0), (2, 1, 3, 4, 0),
        pytest.param(1, 2, 5, 7, 0, marks=pytest.mark.slow),
        pytest.param(3, 1, 2, 4, 0, marks=pytest.mark.slow),
        pytest.param(2, 2, 1, 4, 0, marks=pytest.mark.slow),
        (2, 1, 2, 4, 1), (2, 1, 3, 5, 2), (3, 1, 1, 3, 1), (2, 2, 1, 3, 3),
    ])
    def test_tree_expansion_equals_iteration_lattices(self, dim, K_radius, m,
                                                      ell, threshold):
        # a wider 1-D lattice, the 27 modes of the 3-D cube, the 25 modes
        # of the dim 2, K 2 square, higher orders, where the tree count
        # rather than the kernel width is the cost, and nonzero
        # thresholds off the 1-D lattice
        cfg = make_cfg(K_radius=K_radius, threshold=threshold,
                       cutoff=2 * ell, dim=dim)
        ledger = normal_form(m, cfg)
        oracle = birkhoff_iterate(m, cfg)
        assert compare(ledger.total, oracle.normal_form).equal
        recs = generators_from_recursion(m, cfg)
        for i in range(1, m + 1):
            f = f_transform(i, cfg)
            assert compare(f.total, recs[i - 1]).equal
            assert cancellation_check(f).is_zero


@functools.cache
def built(dim, K_radius):
    """One cutoff-8 build per lattice, which the invariant tests read:
    the order-2 normal form ledger, the F_1 and F_2 ledgers, the oracle
    and the recursion's generators."""
    cfg = make_cfg(K_radius=K_radius, cutoff=8, dim=dim)
    return (normal_form(2, cfg), [f_transform(i, cfg) for i in (1, 2)],
            birkhoff_iterate(2, cfg), list(generators_from_recursion(2, cfg)))


class TestInvariants:
    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_zero_real_part(self, dim, K_radius):
        # a Kernel stores only the rational c of each i*c, so this holds
        # by construction; it pins that items() reports c as a Fraction
        # and that to_json writes real part "0"
        ledger, _, oracle, _ = built(dim, K_radius)
        kernels = [e.kernel for e in ledger.entries] + [
            ledger.total,
            oracle.normal_form,
        ]
        for kernel in kernels:
            assert all(type(c) is Fraction for _, c in kernel.items())
            assert {t["re"] for t in kernel.to_json()["terms"]} <= {"0"}

    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_zero_momentum(self, dim, K_radius):
        # h0 and h1 conserve momentum, and so does every bracket, filter
        # and split built on them
        nf, transforms, oracle, generators = built(dim, K_radius)
        kernels = [oracle.normal_form, *oracle.f_list, *generators]
        for ledger in [nf, *transforms]:
            assert ledger.entries
            kernels += [e.kernel for e in ledger.entries] + [ledger.total]
        zero = (0,) * dim
        for kernel in kernels:
            assert not kernel.is_zero
            for m in kernel.support():
                assert m.momentum() == zero, m

    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_swap_parity(self, dim, K_radius):
        # swapping u and ubar in a monomial keeps its coefficient on the
        # normal form side and flips its sign on the generator side
        ledger, transforms, oracle, generators = built(dim, K_radius)
        even = [e.kernel for e in ledger.entries] + [
            ledger.total,
            oracle.normal_form,
        ]
        odd = list(generators)
        for transform in transforms:
            odd += [e.kernel for e in transform.entries] + [transform.total]
        for s, kernels in ((1, even), (-1, odd)):
            for kernel in kernels:
                for m, c in kernel.items():
                    swapped = Monomial(m.ubar, m.u)
                    assert kernel.coefficient(swapped) == s * c
                assert kernel.swap_parity() == s

    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_parity_is_carried(self, dim, K_radius, monkeypatch):
        # a kernel takes the group and the swap parity its producer
        # passes and never checks them, so every kernel built on the way
        # to the tree expansion, the oracle and the checks between them
        # is caught as it is made.  Each nonzero one must be held under
        # G and declare a parity of ±1 that a fresh check of its full map
        # finds.
        built = []
        init = Kernel.__init__

        def spy(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            built.append(kernel)

        monkeypatch.setattr(Kernel, "__init__", spy)
        monkeypatch.setattr(evaluator, "_KERNELS", {})
        evaluator._base_kernels.cache_clear()
        cfg = make_cfg(K_radius=K_radius, cutoff=8, dim=dim)
        normal_form(2, cfg)
        for i in (1, 2):
            cancellation_check(f_transform(i, cfg))
        birkhoff_iterate(2, cfg)
        generators_from_recursion(2, cfg)
        monkeypatch.undo()
        group = _codec_for(cfg.lattice, cfg.cutoff).group
        assert group.order == 2 ** dim * math.factorial(dim)
        kernels = [k for k in built if not k.is_zero]
        assert len(kernels) > 50
        for kernel in kernels:
            assert kernel.group is group
            full = dict(kernel.items())
            fresh = [s for s in (1, -1) if all(
                full.get(Monomial(m.ubar, m.u), 0) == s * c
                for m, c in full.items())]
            assert fresh == [kernel.swap_parity()]

    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_lattice_symmetry(self, dim, K_radius):
        # h0 and h1 are invariant under every permutation and sign flip of
        # the mode coordinates, and so is every kernel built from them
        cfg = make_cfg(K_radius=K_radius, cutoff=6, dim=dim)
        oracle = birkhoff_iterate(2, cfg)
        kernels = [h0(cfg.lattice, 6), h1(cfg.lattice, 6),
                   oracle.normal_form, *oracle.f_list,
                   *generators_from_recursion(2, cfg)]
        for ledger in (normal_form(2, cfg), f_transform(1, cfg),
                       f_transform(2, cfg)):
            assert ledger.entries
            kernels += [e.kernel for e in ledger.entries] + [ledger.total]
        group = [
            lambda k, perm=perm, signs=signs: tuple(
                s * k[i] for s, i in zip(signs, perm))
            for perm in itertools.permutations(range(dim))
            for signs in itertools.product((1, -1), repeat=dim)]
        assert len(group) == 2 ** dim * math.factorial(dim)
        for kernel in kernels:
            for m, c in kernel.items():
                for g in group:
                    moved = Monomial.of(map(g, m.u), map(g, m.ubar))
                    assert kernel.coefficient(moved) == c, (m, moved)
