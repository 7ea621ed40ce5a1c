import itertools
import json
from fractions import Fraction

import pytest

from birkhoff.enumeration import circ_exact, enumerate_valid, graft_comb, tree_class
from birkhoff.hamiltonian import (
    GENERATOR_SCALE,
    Kernel,
    ModeLattice,
    ResonanceConfig,
    apply_phase_filter,
    h0,
    h1,
    poisson_bracket,
    split_resonant,
)
from birkhoff.evaluator import (
    CLASS_INDEX_OFFSET,
    EvalConfig,
    ExpansionLedger,
    LedgerEntry,
    cancellation_check,
    f_transform,
    normal_form,
    pi,
)
from birkhoff.trees import (
    Decoration,
    Tree,
    TreeError,
    parse,
    render,
    symmetry_factor,
)

O, K, N, R = Decoration.CIRC, Decoration.K, Decoration.N, Decoration.R


def make_cfg(K_radius=2, threshold=0, cutoff=8):
    return EvalConfig(
        ModeLattice(1, K_radius), ResonanceConfig(threshold), cutoff
    )


def n_building_block(cfg):
    return apply_phase_filter(cfg.h1(), cfg.resonance).scale(GENERATOR_SCALE)


class TestPi:
    def test_leaves(self):
        cfg = make_cfg()
        assert pi(Tree(K), cfg) == h0(cfg.lattice, cfg.cutoff)
        assert pi(Tree(O), cfg) == h1(cfg.lattice, cfg.cutoff)
        res, _ = split_resonant(cfg.h1(), cfg.resonance)
        assert pi(Tree(R), cfg) == res
        assert pi(Tree(N), cfg) == n_building_block(cfg)

    def test_intro_displays(self):
        cfg = make_cfg()
        nf1 = n_building_block(cfg)
        assert pi(parse("(o (o) (n))"), cfg) == poisson_bracket(cfg.h1(), nf1)
        expected = poisson_bracket(poisson_bracket(cfg.h0(), nf1), nf1)
        assert pi(parse("(o (o (k) (n)) (n))"), cfg) == expected

    def test_internal_projections(self):
        cfg = make_cfg()
        bracket = poisson_bracket(cfg.h1(), n_building_block(cfg))
        res, _ = split_resonant(bracket, cfg.resonance)
        assert pi(parse("(r (o) (n))"), cfg) == res
        assert pi(parse("(n (o) (n))"), cfg) == apply_phase_filter(
            bracket, cfg.resonance
        ).scale(GENERATOR_SCALE)

    def test_rejects_invalid(self):
        with pytest.raises(TreeError):
            pi(Tree(O, Tree(N), Tree(N)), make_cfg())

    def test_degree_bound_and_attainment(self):
        # every monomial of pi(T) has degree exactly |T|, so a tree above
        # the cutoff gives the zero kernel on the config's lattice and cutoff
        for dim, K_radius, cutoff, degree, above in [
            (1, 1, 12, 8, 0), (1, 2, 12, 10, 0), (1, 2, 10, 12, 96),
            (2, 1, 8, 8, 0),
        ]:
            cfg = EvalConfig(ModeLattice(dim, K_radius), ResonanceConfig(0),
                             cutoff)
            attained = set()
            trees = enumerate_valid(degree)
            for t in trees:
                k = pi(t, cfg)
                assert {m.degree for m in k.support()} <= {t.degree}
                if t.degree > cutoff:
                    assert k == Kernel(cfg.lattice, cutoff)
                elif not k.is_zero:
                    attained.add(t.degree)
            assert sum(t.degree > cutoff for t in trees) == above
            assert attained == set(range(2, min(degree, cutoff) + 1, 2))

    def test_deep_tree_above_the_cutoff_is_zero(self):
        # a 5000-deep left comb is valid; pi must not recurse through it
        cfg = make_cfg(cutoff=6)
        comb = graft_comb(Tree(O), [Tree(N)] * 5000, O)
        try:
            kernel = pi(comb, cfg)
        except RecursionError:
            # fail on the assert below: pytest would take minutes to print
            # a thousand frames that each hold a deep tree
            kernel = None
        assert kernel == Kernel(cfg.lattice, cfg.cutoff)

    def test_truncation_matches_restriction(self):
        full = make_cfg(cutoff=10)
        cut = make_cfg(cutoff=6)
        for t in enumerate_valid(8):
            assert pi(t, cut) == pi(t, full).with_cutoff(6)

    def test_relabel_laws(self):
        cfg = make_cfg()
        for m in (3, 4):
            for t in tree_class(circ_exact(m)):
                base = pi(t, cfg)
                res, _ = split_resonant(base, cfg.resonance)
                assert pi(Tree(R, t.left, t.right), cfg) == res
                assert pi(Tree(N, t.left, t.right), cfg) == apply_phase_filter(
                    base, cfg.resonance
                ).scale(GENERATOR_SCALE)

    def test_cache_hits(self):
        # the r and n projections are memoized too, at leaves as well
        cfg = make_cfg()
        for text in ("(o (o (k) (n)) (n))", "(r (o (k) (n)) (n))",
                     "(n (o (k) (n)) (n))", "(r)", "(n)"):
            t = parse(text)
            assert pi(t, cfg) is pi(t, cfg)
            assert pi(t, make_cfg()) is pi(t, cfg)

    def test_config_is_a_frozen_value(self):
        used, fresh = make_cfg(), make_cfg()
        pi(parse("(o (o) (n))"), used)
        assert used == fresh and hash(used) == hash(fresh)
        with pytest.raises(AttributeError):
            used.cutoff = 6


class TestFTransform:
    def test_f1_single_entry(self):
        cfg = make_cfg(cutoff=4)
        ledger = f_transform(1, cfg)
        assert len(ledger.entries) == 1
        entry = ledger.entries[0]
        assert render(entry.tree) == "(n)"
        assert entry.weight == 1
        assert ledger.total == n_building_block(cfg)

    def test_f2_weights(self):
        ledger = f_transform(2, make_cfg(cutoff=6))
        assert [str(e.weight) for e in ledger.entries] == ["1", "1/2"]

    def test_f3_trees_and_weights(self):
        ledger = f_transform(3, make_cfg(cutoff=8))
        got = {render(e.tree): e.weight for e in ledger.entries}
        assert got == {
            "(n (o (o) (n)) (n))": Fraction(1, 2),
            "(n (o (o (k) (n)) (n)) (n))": Fraction(1, 6),
            "(n (r) (n (o) (n)))": Fraction(1),
            "(n (r) (n (o (k) (n)) (n)))": Fraction(1, 2),
        }

    def test_degree_and_phase_of_generators(self):
        cfg = make_cfg(cutoff=8)
        for i in (1, 2, 3):
            total = f_transform(i, cfg).total
            for m in total.support():
                assert m.degree == 2 * i + 2
                assert abs(m.phase()) > cfg.resonance.threshold

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            f_transform(0, make_cfg())


class TestNormalForm:
    def test_index_offset(self):
        assert CLASS_INDEX_OFFSET == 2

    def test_ledger_structure_1_3(self):
        cfg = make_cfg(cutoff=6)
        ledger = normal_form(1, cfg)
        trees = [render(e.tree) for e in ledger.entries]
        assert trees == [
            "(k)",
            "(r)",
            "(o (o) (n))",
            "(o (o (k) (n)) (n))",
        ]
        assert [str(e.weight) for e in ledger.entries] == ["1", "1", "1", "1/2"]

    def test_ledger_structure_2_4(self):
        ledger = normal_form(2, make_cfg(cutoff=8))
        weights = [str(e.weight) for e in ledger.entries]
        # kinetic + 3 resonant trees + 4 bracket trees
        assert len(ledger.entries) == 1 + 3 + 4
        assert weights == ["1", "1", "1", "1/2", "1/2", "1/6", "1", "1/2"]

    def test_total_is_weighted_sum(self):
        cfg = make_cfg(cutoff=6)
        ledger = normal_form(1, cfg)
        total = Kernel(cfg.lattice, cfg.cutoff)
        for e in reversed(ledger.entries):
            total = total + e.kernel.scale(e.weight)
        assert total == ledger.total

    def test_range_trees_appear(self):
        cfg = make_cfg(K_radius=1, cutoff=10)
        ledger = normal_form(1, cfg)
        degs = sorted({e.tree.degree for e in ledger.entries})
        assert degs == [2, 4, 6, 8, 10]

    def test_low_degree_block_is_resonant(self):
        for threshold in (0, 3):
            cfg = make_cfg(threshold=threshold, cutoff=6)
            total = normal_form(1, cfg).total
            for m in total.support():
                if m.degree <= 2 * (1 + CLASS_INDEX_OFFSET) - 2:
                    assert abs(m.phase()) <= threshold

    def test_preconditions(self):
        cfg = make_cfg(cutoff=6)
        with pytest.raises(ValueError, match="1 <= m < ell"):
            normal_form(3, cfg)  # m = ell = cutoff / 2
        with pytest.raises(ValueError, match="1 <= m < ell"):
            normal_form(0, cfg)

    @pytest.mark.parametrize("cutoff", [2, 5, 7])
    def test_cutoff_even_and_at_least_4(self, cutoff):
        with pytest.raises(ValueError, match="even integer >= 4"):
            make_cfg(cutoff=cutoff)

    def test_json_shape(self):
        cfg = make_cfg(cutoff=6)
        data = normal_form(1, cfg).to_json()
        assert data["m"] == 1 and data["ell"] == 3
        assert data["config"]["radius"] == 2
        assert data["entries"][0]["tree"] == "(k)"
        assert data["entries"][3]["S"] == 2
        assert {"u", "ubar", "re", "im"} <= set(
            data["total"]["terms"][0]
        )


def _nf_1_3_dim1():
    cfg = make_cfg(cutoff=6)
    return normal_form(1, cfg)


def _nf_2_4_dim2():
    # negative coordinates and two-coordinate modes
    cfg = EvalConfig(ModeLattice(2, 1), ResonanceConfig(0), 8)
    return normal_form(2, cfg)


def _f2_dim2():
    # "ell": null
    cfg = EvalConfig(ModeLattice(2, 1), ResonanceConfig(1), 6)
    return f_transform(2, cfg)


def _zero_kernels():
    # "terms": [] in the entry and the total
    cfg = make_cfg(cutoff=6)
    zero = Kernel(cfg.lattice, cfg.cutoff)
    return ExpansionLedger((LedgerEntry(Tree(K), Fraction(1, 2), zero),),
                           zero, cfg, m=1, ell=3)


def _no_entries():
    # "entries": []
    cfg = make_cfg(cutoff=6)
    return ExpansionLedger((), cfg.h0(), cfg, m=1, ell=3)


def _first_difference(got: str, want: str):
    """(line number, got line, want line) where the texts first differ,
    or None.  pytest's own diff of two texts of megabytes takes minutes."""
    lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((n, a, b) for n, (a, b) in enumerate(lines) if a != b),
                None)


class TestLedgerText:
    """``json_pieces`` against the json module's indenting encoder."""

    CASES = pytest.mark.parametrize(
        "build",
        [_nf_1_3_dim1, _nf_2_4_dim2, _f2_dim2, _zero_kernels, _no_entries],
        ids=["nf-1-3-dim1", "nf-2-4-dim2", "f2-dim2-N1", "zero-kernels",
             "no-entries"],
    )

    @CASES
    def test_matches_json_dumps(self, build):
        ledger = build()
        want = json.dumps(ledger.to_json(), sort_keys=True, indent=2)
        got = "".join(ledger.json_pieces())
        assert _first_difference(got, want + "\n") is None

    @CASES
    def test_kernels_read_back(self, build):
        # an independent check of the content, now that json_pieces and
        # to_json share the layout
        ledger = build()
        data = json.loads("".join(ledger.json_pieces()))
        assert len(data["entries"]) == len(ledger.entries)
        for got, e in zip(data["entries"], ledger.entries):
            assert Kernel.from_json(got["kernel"]) == e.kernel
        assert Kernel.from_json(data["total"]) == ledger.total

    def test_cases_hold_integer_and_fractional_coefficients(self):
        ims = {term["im"] for build in (_nf_1_3_dim1, _nf_2_4_dim2, _f2_dim2)
               for term in build().total.to_json()["terms"]}
        assert any("/" in im for im in ims)
        assert any("/" not in im for im in ims)


class TestPropositionCheck:
    def test_comb_factorization(self):
        cfg = make_cfg(cutoff=12)
        tails = [parse("(n (o) (n))"), parse("(n (o (k) (n)) (n))")]
        for base in (Tree(K), Tree(R)):
            for tail in ([tails[0], tails[0]], [tails[0], tails[1]]):
                comb = graft_comb(base, tail, O)
                s_comb = symmetry_factor(comb)
                lhs = pi(comb, cfg).scale(Fraction(1, s_comb))
                nested = pi(base, cfg).scale(
                    Fraction(1, symmetry_factor(base))
                )
                for t in tail:
                    nested = poisson_bracket(
                        nested,
                        pi(t, cfg).scale(Fraction(1, symmetry_factor(t))),
                    )
                rhs = nested.scale(Fraction(1, 2))  # 1/p! with p = 2
                assert lhs == rhs


class TestCancellation:
    def test_small_indices(self):
        for threshold in (0, 1, 3):
            cfg = make_cfg(threshold=threshold, cutoff=6)
            assert cancellation_check(f_transform(1, cfg)).is_zero

    def test_second_order(self):
        assert cancellation_check(f_transform(2, make_cfg(cutoff=6))).is_zero
