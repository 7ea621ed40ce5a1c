"""Acceptance gate: the nine exact-identity criteria, one test each.

Everything here is tolerance-free: kernel comparisons are exact Gaussian
rational identities and tree sets are matched string-by-string.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from birkhoff.cli import main as cli_main
from birkhoff.enumeration import (
    circ_exact,
    circ_range,
    enumerate_valid,
    graft_comb,
    n_exact,
    res_below,
    tree_class,
)
from birkhoff.evaluator import EvalConfig, cancellation_check, f_transform, normal_form
from birkhoff.hamiltonian import (
    Kernel,
    ModeLattice,
    Monomial,
    ResonanceConfig,
    poisson_bracket,
)
from birkhoff.oracle import (
    birkhoff_iterate,
    compare,
    generators_from_recursion,
    sequences,
    truncation_term,
)
from birkhoff.trees import (
    Decoration,
    iter_nodes,
    parse,
    render,
    symmetry_factor,
    validate_tree,
)

O, K, N, R = Decoration.CIRC, Decoration.K, Decoration.N, Decoration.R


def make_cfg(radius=2, threshold=0, cutoff=8):
    return EvalConfig(ModeLattice(1, radius), ResonanceConfig(threshold), cutoff)


def timed(limit_seconds):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, f"took {elapsed:.1f}s"

    return check


def test_criterion_1_tree_set_reproduction():
    done = timed(1.0)
    displayed = {
        res_below(3): ["(r)"],
        circ_exact(3): ["(o (o) (n))", "(o (o (k) (n)) (n))"],
        n_exact(2): ["(n)"],
        n_exact(3): ["(n (o) (n))", "(n (o (k) (n)) (n))"],
        circ_range(3, 4): [
            "(o (o (o) (n)) (n))",
            "(o (o (o (k) (n)) (n)) (n))",
        ],
        res_below(4): ["(r)", "(r (o) (n))", "(r (o (k) (n)) (n))"],
        circ_exact(4): [
            "(o (o (o) (n)) (n))",
            "(o (o (o (k) (n)) (n)) (n))",
            "(o (r) (n (o) (n)))",
            "(o (r) (n (o (k) (n)) (n)))",
        ],
    }
    for query, strings in displayed.items():
        assert [render(t) for t in tree_class(query)] == strings
    done()


def test_criterion_2_symmetry_factors():
    done = timed(10.0)
    assert symmetry_factor(parse("(o (o) (n))")) == 1
    assert symmetry_factor(parse("(r (o (k) (n)) (n))")) == 2
    # the 2! * 3! comb: k base, two degree-8 tails with S-product 3!
    comb12 = parse(
        "(o (o (k) (n (r) (n (o) (n)))) (n (o (o (k) (n)) (n)) (n)))"
    )
    assert symmetry_factor(comb12) == 12

    # comb factorization over pieces of degree <= 8, exhaustively: valid
    # combs with equal-degree tails satisfy S = p! * S(base) * prod S(T_i)
    pieces = list(enumerate_valid(8))
    bases = [t for t in pieces if t.decoration in (K, R, O)]
    tails_by_degree = {}
    for t in pieces:
        if t.decoration is N:
            tails_by_degree.setdefault(t.degree, []).append(t)
    checked = 0
    for base in bases:
        for tail_degree, tails in tails_by_degree.items():
            if (
                base.decoration is O
                and not base.is_leaf
                and base.right.degree == tail_degree
            ):
                # the left-comb deepening continues into the base itself;
                # such trees are longer combs, not combs with this base
                continue
            for p in (1, 2, 3):
                for tail in itertools.product(tails, repeat=p):
                    for root_dec in (O, N, R):
                        comb = graft_comb(base, list(tail), root_dec)
                        if validate_tree(comb):
                            continue
                        want = symmetry_factor(base)
                        for t in tail:
                            want *= symmetry_factor(t)
                        for i in range(1, p + 1):
                            want *= i
                        assert symmetry_factor(comb) == want, render(comb)
                        checked += 1
    assert checked > 100
    done()


def test_criterion_3_degree_formula():
    assert parse("(o (o) (n))").degree == 6
    assert parse("(r (o (k) (n)) (n))").degree == 6
    for t in enumerate_valid(12):
        for v in iter_nodes(t):
            if not v.is_leaf:
                assert v.degree == v.left.degree + v.right.degree - 2


def test_criterion_4_cancellation_identities():
    done = timed(60.0)
    for threshold in (0, 3):
        for i in (1, 2):
            cfg = make_cfg(threshold=threshold, cutoff=6)
            assert cancellation_check(i, cfg).is_zero, (i, threshold)
    done()


def test_criterion_5_main_theorem_desk_scale():
    done = timed(600.0)
    cases = [(1, 2, 0), (1, 3, 0), (2, 3, 0), (2, 4, 0), (1, 3, 3)]
    for m, ell, threshold in cases:
        cfg = make_cfg(threshold=threshold, cutoff=2 * ell)
        report = compare(
            normal_form(m, cfg).total,
            birkhoff_iterate(m, cfg).normal_form,
        )
        assert report.equal, (m, ell, threshold)
    done()


def test_criterion_6_f_generator_equivalence():
    for radius in (1, 2):
        cfg = make_cfg(radius=radius, cutoff=8)
        recursion = generators_from_recursion(3, cfg)
        for i in (1, 2, 3):
            ledger = f_transform(i, cfg)
            assert compare(ledger.total, recursion[i - 1]).equal, (radius, i)


def _random_kernel(rng, lat, cutoff, terms, max_half, zero_momentum=False):
    entries = {}
    for _ in range(terms):
        n = rng.randint(1, max_half)
        u = [(rng.randint(-lat.radius, lat.radius),) for _ in range(n)]
        if zero_momentum:
            v = list(u)
            rng.shuffle(v)
        else:
            v = [(rng.randint(-lat.radius, lat.radius),) for _ in range(n)]
        nonzero = rng.choice([x for x in range(-6, 7) if x])
        entries[Monomial.of(u, v)] = Fraction(nonzero, rng.randint(1, 5))
    return Kernel.of(lat, cutoff, entries)


def test_criterion_7_bracket_algebra_suite():
    done = timed(60.0)
    lat = ModeLattice(1, 2)
    rng = random.Random(20240817)

    for _ in range(1000):  # antisymmetry
        a = _random_kernel(rng, lat, 12, 3, 3)
        b = _random_kernel(rng, lat, 12, 3, 3)
        assert poisson_bracket(a, b) == -poisson_bracket(b, a)

    for _ in range(1000):  # Jacobi, degree <= 6 pieces, roomy cutoff
        a, b, c = (
            _random_kernel(rng, lat, 14, 2, 3) for _ in range(3)
        )
        total = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        assert total.is_zero

    for _ in range(1000):  # degree law
        a = _random_kernel(rng, lat, 20, 2, 3)
        b = _random_kernel(rng, lat, 20, 2, 3)
        bracket = poisson_bracket(a, b)
        if not bracket.is_zero:
            assert (
                bracket.term_degree()
                <= a.term_degree() + b.term_degree() - 2
            )

    for _ in range(1000):  # momentum closure
        a = _random_kernel(rng, lat, 12, 2, 3, zero_momentum=True)
        b = _random_kernel(rng, lat, 12, 2, 3, zero_momentum=True)
        for m in poisson_bracket(a, b).support():
            assert m.momentum() == (0,)

    for _ in range(1000):  # phase additivity on single-monomial pairs
        a = _random_kernel(rng, lat, 20, 1, 2)
        b = _random_kernel(rng, lat, 20, 1, 2)
        (ma,) = a.support()
        (mb,) = b.support()
        for m in poisson_bracket(a, b).support():
            assert m.phase() == ma.phase() + mb.phase()
    done()


def test_criterion_8_truncation_combinatorics():
    assert {info.z: (info.c, info.q) for info in sequences(3, 3)} == {
        (1, 1, 1): (6, 3),
        (1, 2): (1, 2),
        (3,): (1, 1),
    }
    # R_3^3(g) = (1/6){{{g,F1},F1},F1} + {{g,F2... coefficients 1/6, 1, 1
    cfg = make_cfg(cutoff=12)
    f = [
        k.with_cutoff(12)
        for k in generators_from_recursion(3, make_cfg(cutoff=8))
    ]
    g = cfg.h0() + cfg.h1()
    triple = poisson_bracket(
        poisson_bracket(poisson_bracket(g, f[0]), f[0]), f[0]
    )
    double = poisson_bracket(poisson_bracket(g, f[0]), f[1])
    single = poisson_bracket(g, f[2])
    want = triple.scale(Fraction(1, 6)) + double + single
    assert truncation_term(g, 3, 3, f) == want


def test_criterion_9_determinism(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        code = cli_main(
            ["expand", "--m", "2", "--ell", "4", "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    json.loads(first.read_text())  # well-formed on top of byte equality
