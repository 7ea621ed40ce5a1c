import pytest

from birkhoff.enumeration import (
    ClassKind,
    EnumerationCapError,
    TreeClassQuery,
    circ_exact,
    circ_range,
    enumerate_valid,
    graft_comb,
    n_exact,
    res_below,
    tree_class,
)
from birkhoff.trees import (
    Decoration,
    TreeError,
    leaf,
    node,
    parse,
    relabel_root,
    render,
    validate_tree,
)

O, K, N, R = Decoration.CIRC, Decoration.K, Decoration.N, Decoration.R


def canon(tree_set):
    return [render(t) for t in tree_set]


# the displayed low-order tree classes, hand-encoded
RES_BELOW_3 = ["(r)"]
CIRC_3 = ["(o (o) (n))", "(o (o (k) (n)) (n))"]
N_2 = ["(n)"]
N_3 = ["(n (o) (n))", "(n (o (k) (n)) (n))"]
CIRC_RANGE_3_4 = ["(o (o (o) (n)) (n))", "(o (o (o (k) (n)) (n)) (n))"]
RES_BELOW_4 = ["(r)", "(r (o) (n))", "(r (o (k) (n)) (n))"]
CIRC_4 = [
    "(o (o (o) (n)) (n))",
    "(o (o (o (k) (n)) (n)) (n))",
    "(o (r) (n (o) (n)))",
    "(o (r) (n (o (k) (n)) (n)))",
]


class TestDisplayedSets:
    def test_res_below_1_is_empty(self):
        # its degree window (0, 0] holds no tree
        assert canon(tree_class(res_below(1))) == []

    def test_res_below_3(self):
        assert canon(tree_class(res_below(3))) == RES_BELOW_3

    def test_circ_3(self):
        assert canon(tree_class(circ_exact(3))) == CIRC_3

    def test_n_2(self):
        assert canon(tree_class(n_exact(2))) == N_2

    def test_n_3(self):
        assert canon(tree_class(n_exact(3))) == N_3

    def test_circ_range_3_4(self):
        assert canon(tree_class(circ_range(3, 4))) == CIRC_RANGE_3_4

    def test_res_below_4(self):
        assert canon(tree_class(res_below(4))) == RES_BELOW_4

    def test_circ_4(self):
        assert canon(tree_class(circ_4 := circ_exact(4))) == CIRC_4

    def test_circ_2(self):
        assert canon(tree_class(circ_exact(2))) == ["(o)"]


class TestEnumerateValid:
    def test_degree_2(self):
        assert canon(enumerate_valid(2)) == ["(k)"]

    def test_degree_4(self):
        assert sorted(canon(enumerate_valid(4))) == ["(k)", "(n)", "(o)", "(r)"]

    def test_all_members_valid(self):
        for t in enumerate_valid(10):
            assert not validate_tree(t), render(t)

    def test_no_duplicates_and_sorted(self):
        ts = enumerate_valid(10)
        strings = canon(ts)
        assert len(strings) == len(set(strings))
        assert list(ts.trees) == sorted(ts.trees, key=_key)

    def test_monotone(self):
        big = {render(t) for t in enumerate_valid(12) if t.degree <= 8}
        assert big == set(canon(enumerate_valid(8)))

    def test_against_naive_generator(self):
        # independent generate-then-filter oracle: the naive pool applies
        # only the right-child-n and k-placement rules, leaving rules (b),
        # (i), (ii), and the root restriction to validate_tree.
        for d in (6, 8, 10, 12):
            naive = {
                render(t)
                for t in _naive_pool(d)
                if _naive_standalone(t) and not validate_tree(t)
            }
            assert naive == set(canon(enumerate_valid(d)))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_valid(12, cap=10)

    def test_cap_counts_leaves_in_degree_order(self):
        # the k-leaf (degree 2) is counted first, so the second tree, the
        # one past a cap of 1, is a degree-4 leaf
        with pytest.raises(EnumerationCapError, match="cap 1 exceeded at "
                           "degree 4$"):
            enumerate_valid(4, cap=1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            enumerate_valid(0)


def _key(t):
    from birkhoff.trees import canonical_key

    return canonical_key(t)


def _naive_pool(max_degree):
    """All trees of degree <= max_degree satisfying only: right children
    rooted n, k only as left-child leaf under a circ node."""
    pools = {2: [leaf(K)], 4: [leaf(O), leaf(N), leaf(R)]}
    for d in range(4, max_degree + 1, 2):
        fresh = pools.setdefault(d, [])
        for root in (N, R, O):
            for d1 in range(2, d - 1, 2):
                d2 = d + 2 - d1
                if d2 < 4:
                    continue
                rights = [
                    t for t in (pools.get(d2) or []) if t.decoration is N
                ]
                if d2 == d:
                    rights = [t for t in fresh if t.decoration is N]
                for t1 in pools.get(d1, []):
                    if t1.decoration is K and root is not O:
                        continue
                    for t2 in rights:
                        fresh.append(node(root, t1, t2))
    return [t for pool in pools.values() for t in pool]


def _naive_standalone(t):
    return t.is_leaf or t.left.decoration is not K


class TestInvariants:
    def test_res_below_recurrence(self):
        for m in range(2, 6):
            lower = set(canon(tree_class(res_below(m))))
            relabeled = {
                render(relabel_root(t, R)) for t in tree_class(circ_exact(m))
            }
            assert set(canon(tree_class(res_below(m + 1)))) == lower | relabeled

    def test_root_relabel_bijection(self):
        for m in range(2, 7):
            from_n = {
                render(relabel_root(t, O)) for t in tree_class(n_exact(m))
            }
            assert from_n == set(canon(tree_class(circ_exact(m))))

    def test_circ_range_excludes_big_n_nodes(self):
        for t in tree_class(circ_range(3, 5)):
            for v in _internal_n_nodes(t):
                assert v.degree < 6


def _internal_n_nodes(t):
    from birkhoff.trees import iter_nodes

    return [
        v for v in iter_nodes(t) if not v.is_leaf and v.decoration is N
    ]


class TestGraftComb:
    def test_single_tail(self):
        assert graft_comb(leaf(O), [leaf(N)], O) == parse("(o (o) (n))")

    def test_inner_nodes_circ_root_custom(self):
        t = graft_comb(leaf(K), [leaf(N), leaf(N)], R)
        assert render(t) == "(r (o (k) (n)) (n))"

    def test_rejects_bad_tail(self):
        with pytest.raises(TreeError):
            graft_comb(leaf(O), [], O)
        with pytest.raises(TreeError):
            graft_comb(leaf(O), [leaf(O)], O)

    def test_rejects_bad_base_and_root(self):
        with pytest.raises(TreeError):
            graft_comb(leaf(N), [leaf(N)], O)
        with pytest.raises(TreeError):
            graft_comb(leaf(O), [leaf(N)], K)

    def test_circ_4_decomposition(self):
        # degree-8 circ trees split into the range trees of the lower
        # order and single grafts of a resonant base with an n-tree tail
        grafts = {
            render(graft_comb(t1, [t2], O))
            for t1 in tree_class(res_below(3))
            for t2 in tree_class(n_exact(3))
        }
        expected = set(canon(tree_class(circ_range(3, 4)))) | grafts
        assert set(canon(tree_class(circ_exact(4)))) == expected

    def test_circ_5_graft_cross_check(self):
        # every degree-10 circ tree with an r-rooted left child is a graft
        # of a lower resonant tree with an n-tree of complementary degree
        members = list(tree_class(circ_exact(5)))
        r_left = {
            render(t) for t in members if t.left.decoration is R
        }
        grafts = set()
        for t1 in tree_class(res_below(5)):
            for m2 in (2, 3, 4):
                if t1.degree + 2 * m2 - 2 != 10:
                    continue
                for t2 in tree_class(n_exact(m2)):
                    g = graft_comb(t1, [t2], O)
                    if not validate_tree(g):
                        grafts.add(render(g))
        assert r_left == grafts
        assert len(members) == 14


class TestQueriesAndJson:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            TreeClassQuery(ClassKind.CIRC_RANGE, 4, 4)
        with pytest.raises(ValueError):
            TreeClassQuery(ClassKind.CIRC_EXACT, 3, 5)
        with pytest.raises(ValueError):
            TreeClassQuery(ClassKind.CIRC_EXACT, 0)

    def test_tree_set_json(self):
        data = tree_class(circ_exact(3)).to_json()
        assert data["trees"] == CIRC_3
        assert data["degrees"] == [6, 6]
        assert data["symmetry_factors"] == [1, 2]
        assert data["query"] == "circ(m=3)"
