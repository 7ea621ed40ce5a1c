import hashlib
import math
import time

import pytest
from hypothesis import given, strategies as st

from birkhoff.trees import (
    Decoration,
    ParseError,
    Tree,
    TreeError,
    canonical_key,
    iter_nodes,
    parse,
    render,
    symmetry_factor,
    validate_tree,
)
from birkhoff.enumeration import enumerate_valid

O, K, N, R = Decoration.CIRC, Decoration.K, Decoration.N, Decoration.R

T_CIRC_N = Tree(O, Tree(O), Tree(N))
T_BAR = Tree(R, Tree(O, Tree(K), Tree(N)), Tree(N))
# comb with k base and two degree-8 tails whose symmetry factors multiply
# to 3!; the left-comb depth contributes the extra 2!.
T_COMB12 = parse("(o (o (k) (n (r) (n (o) (n)))) (n (o (o (k) (n)) (n)) (n)))")
# sha256 of the latex renders of enumerate_valid(10), one per line, as the
# recursive string-joining renderer wrote them
LATEX_VALID_10_SHA256 = (
    "865f82fb59c6fa72dac416ec82e92d4b1d5bfb7511b689b945c55802c421d00f"
)
# sha256 of the canonical and dot renders of enumerate_valid(12), one per
# line in enumeration order, as the recursive renderers wrote them; the
# order also pins canonical_key
VALID_12_SHA256 = {
    "canonical":
        "951b3086002a4cf193c6aacfcb9b5c1d794989b71a2a6364c919562c0857df31",
    "dot": "e8a319ade157dee64a58f59b5e671388d6805d8a3e83c490397cd8fee722a106",
}
# each parse error as (input, message, position), as the recursive parser
# reported them
PARSE_ERRORS = [
    ("(x)", "expected decoration letter o/k/n/r", 1),
    ("(o (o) (n)", "expected ')'", 10),
    ("(o) extra", "trailing input after tree", 4),
    ("", "expected '('", 0),
    ("(", "expected decoration letter o/k/n/r", 1),
    ("(o", "expected ')' or ' '", 2),
    ("(o )", "expected '('", 3),
    ("(o (o)(n))", "expected ' ' before right subtree", 6),
    ("(o (o) (n) )", "expected ')'", 10),
]


def comb(depth):
    """The left comb of circ nodes over a circ leaf with n-leaf tails;
    comb(990) is "(o " * 990 + "(o)" + " (n))" * 990."""
    t = Tree(O)
    for _ in range(depth):
        t = Tree(O, t, Tree(N))
    return t


def fastest(fn, *args, runs=3):
    """The shortest of a few wall times of fn(*args), in seconds."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def counted_degree(t):
    """2 per k-leaf, 4 per other leaf, -2 per internal node."""
    nodes = list(iter_nodes(t))
    leaves = [v for v in nodes if v.is_leaf]
    k_leaves = sum(1 for v in leaves if v.decoration is K)
    return (2 * k_leaves + 4 * (len(leaves) - k_leaves)
            - 2 * (len(nodes) - len(leaves)))


def any_tree(max_leaves=6):
    decs = st.sampled_from(list(Decoration))
    return st.recursive(
        decs.map(Tree),
        lambda children: st.builds(
            Tree, st.sampled_from([O, N, R]), children, children
        ),
        max_leaves=max_leaves,
    )


class TestDegree:
    def test_displayed_examples(self):
        assert T_CIRC_N.degree == 6
        assert T_BAR.degree == 6

    def test_leaves(self):
        assert Tree(K).degree == 2
        for d in (O, N, R):
            assert Tree(d).degree == 4

    @given(any_tree(), any_tree(), st.sampled_from([O, N, R]))
    def test_additivity(self, t1, t2, dec):
        assert Tree(dec, t1, t2).degree == t1.degree + t2.degree - 2

    def test_even_and_positive_exhaustive(self):
        for t in enumerate_valid(12):
            d = t.degree
            assert d >= 2 and d % 2 == 0

    def test_matches_count_exhaustive(self):
        for t in enumerate_valid(12):
            assert t.degree == counted_degree(t)

    @given(any_tree())
    def test_matches_count_any(self, t):
        assert t.degree == counted_degree(t)


class TestDeepTrees:
    """Each walk reads stored degrees and keeps its own stack."""

    def test_validate_5000_deep(self):
        t = comb(5000)
        assert validate_tree(t) == ()
        assert t.degree == 10004

    def test_990_deep_in_linear_time(self):
        t = comb(990)
        assert fastest(validate_tree, t) < 0.1
        assert fastest(symmetry_factor, t) < 0.1
        assert fastest(render, t, "latex") < 0.1

    def test_5000_deep_codecs(self):
        t = comb(5000)
        text = "(o " * 5000 + "(o)" + " (n))" * 5000
        assert render(t) == text
        assert parse(text) == t and hash(parse(text)) == hash(t)
        assert repr(t) == f"Tree({text!r})"
        assert len(canonical_key(t)) == 10001
        for fn in (lambda: parse(render(t)), lambda: hash(t), lambda: repr(t),
                   lambda: canonical_key(t)):
            assert fastest(fn) < 0.5

    def test_5000_deep_dot(self):
        lines = render(comb(5000), "dot").split("\n")
        assert len(lines) == 3 + 10001 + 2 * 5000
        assert lines[2] == '  v0 [label="o"];'
        assert lines[-3:-1] == ["  v0 -> v1;", "  v0 -> v10000;"]

    def test_990_deep_values(self):
        t = comb(990)
        # p = 990 equal-degree tails, each of S 1, give S = p!
        assert symmetry_factor(t) == math.factorial(990)
        lines = render(t, "latex").split("\n")
        assert len(lines) == 2 + 2 * 990 + 991
        assert lines[990] == "  " * 990 + "[{$\\circ$}"


class TestValidation:
    def test_displayed_valid(self):
        assert not validate_tree(T_CIRC_N)
        assert not validate_tree(T_BAR)

    def test_bare_k_leaf_valid(self):
        assert not validate_tree(Tree(K))

    def test_n_leaf_on_left_rule_b(self):
        assert ("l", "b") in validate_tree(Tree(O, Tree(N), Tree(N)))

    def test_r_left_needs_smaller_rule_ii(self):
        assert ("", "ii") in validate_tree(Tree(R, Tree(R), Tree(N)))

    def test_circ_left_needs_larger_rule_i(self):
        big = Tree(N, Tree(O, Tree(O), Tree(N)), Tree(N))  # 6 >= 4, fine
        assert not validate_tree(big)
        small = Tree(N, Tree(O), Tree(N, Tree(O), Tree(N)))  # 4 >= 6 fails
        assert ("", "i") in validate_tree(small)

    def test_k_needs_circ_parent_rule_c(self):
        assert ("l", "c") in validate_tree(Tree(N, Tree(K), Tree(N)))

    def test_k_parent_cannot_be_root_rule_c(self):
        assert ("l", "c") in validate_tree(Tree(O, Tree(K), Tree(N)))
        nested = Tree(R, Tree(O, Tree(K), Tree(N)), Tree(N))
        assert not validate_tree(nested)

    def test_one_child_is_refused(self):
        with pytest.raises(TreeError, match="zero or two children"):
            Tree(O, Tree(O))
        with pytest.raises(TreeError, match="zero or two children"):
            Tree(O, None, Tree(N))

    def test_internal_k_rule_c(self):
        assert ("", "c") in validate_tree(Tree(K, Tree(O), Tree(N)))

    def test_nested_rule_is_le(self):
        # left child ends in a degree-6 right subtree against a degree-4
        # sibling: |T3| <= |T2| rejects it under rule (i).
        t = parse("(o (o (k) (n (o) (n))) (n))")
        assert validate_tree(t) == (("", "i"),)


class TestSymmetryFactor:
    def test_displayed_values(self):
        assert symmetry_factor(T_CIRC_N) == 1
        assert symmetry_factor(T_BAR) == 2
        assert symmetry_factor(T_COMB12) == 12

    def test_leaves(self):
        for d in Decoration:
            assert symmetry_factor(Tree(d)) == 1

    def test_rejects_invalid(self):
        with pytest.raises(TreeError):
            symmetry_factor(Tree(O, Tree(N), Tree(N)))

    def test_deepening_applies_at_any_root_decoration(self):
        base = Tree(O, Tree(K), Tree(N))
        for dec in (O, N, R):
            t = Tree(dec, base, Tree(N))
            assert symmetry_factor(t) == 2


class TestSerialization:
    def test_render_leaf(self):
        assert render(Tree(O)) == "(o)"

    def test_parse_example(self):
        assert parse("(o (o) (n))") == T_CIRC_N

    def test_round_trip_exhaustive(self):
        for t in enumerate_valid(12):
            assert parse(render(t)) == t

    @given(any_tree())
    def test_round_trip_any(self, t):
        assert parse(render(t)) == t

    def test_parse_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse("(x)")
        assert exc.value.position == 1
        with pytest.raises(ParseError) as exc:
            parse("(o (o) (n)")
        assert exc.value.position == 10
        with pytest.raises(ParseError) as exc:
            parse("(o) extra")
        assert exc.value.position == 4

    def test_latex_format(self):
        text = render(T_CIRC_N, "latex")
        assert text.startswith("\\begin{forest}")
        assert text.count("$\\circ$") == 2 and "$n$" in text

    def test_latex_bytes_pinned(self):
        text = "\n".join(render(t, "latex") for t in enumerate_valid(10))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == LATEX_VALID_10_SHA256

    @pytest.mark.parametrize("fmt", sorted(VALID_12_SHA256))
    def test_bytes_pinned(self, fmt):
        text = "\n".join(render(t, fmt) for t in enumerate_valid(12))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == VALID_12_SHA256[fmt]

    @pytest.mark.parametrize("text,message,position", PARSE_ERRORS)
    def test_parse_error_table(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    def test_parse_skips_runs_of_spaces(self):
        assert parse("(o  (o)  (n))") == T_CIRC_N
        assert parse("  (o)  ") == Tree(O)

    def test_dot_format(self):
        text = render(T_BAR, "dot")
        assert text.startswith("digraph")
        assert text.count("->") == 4

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(T_BAR, "png")

    def test_canonical_key_order(self):
        trees = [Tree(R), Tree(K), T_CIRC_N, Tree(N), Tree(O)]
        trees.sort(key=canonical_key)
        assert [render(t) for t in trees] == [
            "(o)", "(o (o) (n))", "(k)", "(n)", "(r)"
        ]
