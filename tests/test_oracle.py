import itertools
import math
import random
from fractions import Fraction

import pytest

from birkhoff.hamiltonian import (
    GENERATOR_SCALE,
    Kernel,
    ModeLattice,
    Monomial,
    ResonanceConfig,
    apply_phase_filter,
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
        for threshold in (0, 3):
            cfg = make_cfg(threshold=threshold, cutoff=8)
            h = birkhoff_iterate(2, cfg).normal_form
            for m in h.support():
                if m.degree <= 2 * (2 + 1):
                    assert abs(m.phase()) <= threshold

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
    @pytest.mark.parametrize(
        "m,ell,threshold",
        [(1, 2, 0), (1, 3, 0), (2, 3, 0), (2, 4, 0), (1, 3, 3)],
    )
    def test_tree_expansion_equals_iteration(self, m, ell, threshold):
        cfg = make_cfg(threshold=threshold, cutoff=2 * ell)
        ledger = normal_form(m, cfg)
        oracle = birkhoff_iterate(m, cfg)
        assert compare(ledger.total, oracle.normal_form).equal

    def test_range_class_active_case(self):
        # ell - m > 2 exercises the range trees end to end
        cfg = make_cfg(K_radius=1, cutoff=10)
        ledger = normal_form(2, cfg)
        oracle = birkhoff_iterate(2, cfg)
        assert compare(ledger.total, oracle.normal_form).equal

    def test_f_transform_matches_recursion(self):
        for radius in (1, 2):
            cfg = make_cfg(K_radius=radius, cutoff=8)
            recs = generators_from_recursion(3, cfg)
            for i in (1, 2, 3):
                assert compare(f_transform(i, cfg).total, recs[i - 1]).equal

    @pytest.mark.parametrize("m,ell", [(1, 3), (2, 4)])
    def test_tree_expansion_equals_iteration_dim2(self, m, ell):
        cfg = make_cfg(K_radius=1, cutoff=2 * ell, dim=2)
        ledger = normal_form(m, cfg)
        oracle = birkhoff_iterate(m, cfg)
        assert compare(ledger.total, oracle.normal_form).equal

    @pytest.mark.parametrize("dim,K_radius,m,ell", [
        (1, 3, 2, 4), (3, 1, 1, 3), (2, 2, 1, 3), (1, 2, 4, 6),
        pytest.param(1, 2, 5, 7, marks=pytest.mark.slow),
        pytest.param(2, 1, 3, 5, marks=pytest.mark.slow),
    ])
    def test_tree_expansion_equals_iteration_lattices(self, dim, K_radius, m,
                                                      ell):
        # a wider 1-D lattice, the 27 modes of the 3-D cube, the 25 modes
        # of the dim 2, K 2 square, and higher orders, where the tree
        # count rather than the kernel width is the cost
        cfg = make_cfg(K_radius=K_radius, cutoff=2 * ell, dim=dim)
        ledger = normal_form(m, cfg)
        oracle = birkhoff_iterate(m, cfg)
        assert compare(ledger.total, oracle.normal_form).equal

    def test_f_transform_and_cancellation_dim2(self):
        cfg = make_cfg(K_radius=1, cutoff=8, dim=2)
        recs = generators_from_recursion(3, cfg)
        for i in (1, 2, 3):
            assert compare(f_transform(i, cfg).total, recs[i - 1]).equal
            assert cancellation_check(i, cfg).is_zero


class TestInvariants:
    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_zero_real_part(self, dim, K_radius):
        # a Kernel stores only the rational c of each i*c, so this holds
        # by construction; it pins that items() reports c as a Fraction
        # and that to_json writes real part "0"
        cfg = make_cfg(K_radius=K_radius, cutoff=8, dim=dim)
        ledger = normal_form(2, cfg)
        kernels = [e.kernel for e in ledger.entries] + [
            ledger.total,
            birkhoff_iterate(2, cfg).normal_form,
        ]
        for kernel in kernels:
            assert all(type(c) is Fraction for _, c in kernel.items())
            assert {t["re"] for t in kernel.to_json()["terms"]} <= {"0"}

    @pytest.mark.parametrize("dim,K_radius", [(1, 2), (2, 1)])
    def test_swap_parity(self, dim, K_radius):
        # swapping u and ubar in a monomial keeps its coefficient on the
        # normal form side and flips its sign on the generator side
        cfg = make_cfg(K_radius=K_radius, cutoff=8, dim=dim)
        ledger = normal_form(2, cfg)
        even = [e.kernel for e in ledger.entries] + [
            ledger.total,
            birkhoff_iterate(2, cfg).normal_form,
        ]
        odd = list(generators_from_recursion(2, cfg))
        for i in (1, 2):
            transform = f_transform(i, cfg)
            odd += [e.kernel for e in transform.entries] + [transform.total]
        for s, kernels in ((1, even), (-1, odd)):
            for kernel in kernels:
                for m, c in kernel.items():
                    swapped = Monomial(m.ubar, m.u)
                    assert kernel.coefficient(swapped) == s * c
