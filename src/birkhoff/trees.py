"""Decorated planar binary rooted trees.

Trees carry decorations from {circ, k, n, r} and encode iterated Poisson
brackets: internal nodes are brackets (plain, resonant-projected, or
phase-filtered) and leaves are the generating Hamiltonian kernels.  This
module defines the tree type, the structural validity rules, the degree,
the symmetry factor recursion, and canonical text serialization.

Structural rules for a valid tree:

* every internal node has exactly two children (intrinsic to the type);
* (a) every right child is rooted n;
* (b) every left child is rooted r, circ, or k;
* (c) k occurs only at leaves, and a k-leaf's parent is a non-root node
  decorated circ (a bare k-leaf standing alone is valid);
* (i) at a node whose left child T1 is rooted circ: |T1| >= |T2|, and when
  T1 is internal with right child T3, |T3| <= |T2|;
* (ii) at a node whose left child T1 is rooted r: |T1| < |T2|.

Every rule is local to one node, given its children's decorations and
subtree degrees, so all of them live in one function,
:func:`node_violations`.  :func:`validate_tree` walks a tree with it and
returns the sorted violations, none for a valid tree; the enumeration
checks each node it builds with it.

The nested comparison of rule (i) fixes the order of the flows a tree
expands along.  It reads |T3| <= |T2| (``NESTED_RULE``, the name ledgers
record): that admits exactly the bracket orderings produced by sequential
flow composition (generator indices non-decreasing from the inside out)
and reproduces the displayed tree classes.  The brute-force oracle
composes the flows in sequence, and the other reading, |T3| >= |T2|,
fails the identity with it from m = 2 on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional


class Decoration(enum.Enum):
    CIRC = "o"
    K = "k"
    N = "n"
    R = "r"

    def __repr__(self) -> str:
        return f"Decoration.{self.name}"


_RANK = {Decoration.CIRC: 0, Decoration.K: 1, Decoration.N: 2, Decoration.R: 3}
_BY_LETTER = {d.value: d for d in Decoration}

INTERNAL_DECORATIONS = (Decoration.CIRC, Decoration.N, Decoration.R)
LEFT_DECORATIONS = (Decoration.R, Decoration.CIRC, Decoration.K)


class TreeError(ValueError):
    """Raised for structurally unusable tree arguments."""


class ParseError(TreeError):
    """Raised by :func:`parse`; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Tree:
    """A decorated planar binary tree; a leaf has both children None."""

    decoration: Decoration
    left: Optional["Tree"] = None
    right: Optional["Tree"] = None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise TreeError("a node needs either zero or two children")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return f"Tree({render(self)!r})"


def leaf(decoration: Decoration) -> Tree:
    return Tree(decoration)


def node(decoration: Decoration, left: Tree, right: Tree) -> Tree:
    return Tree(decoration, left, right)


def iter_nodes(tree: Tree) -> Iterator[Tree]:
    """Preorder traversal."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        if not t.is_leaf:
            stack.append(t.right)
            stack.append(t.left)


def degree(tree: Tree) -> int:
    """2 per k-leaf, 4 per other leaf, minus the number of edges.

    Equivalently: leaves contribute 2 or 4 and every internal node
    subtracts 2, so degree(node(d, a, b)) = degree(a) + degree(b) - 2.
    """
    if tree.is_leaf:
        return 2 if tree.decoration is Decoration.K else 4
    return degree(tree.left) + degree(tree.right) - 2


# the one reading of rule (i)'s nested comparison, |T3| <= |T2|
NESTED_RULE = "nested-le"


def node_violations(t: Tree, is_root: bool) -> list[tuple[str, str]]:
    """Rule violations at node t alone, as (path from t, rule id).

    Each rule reads only t, its children's decorations and its subtree
    degrees, so a tree is valid exactly when no node reports anything.
    ``is_root`` matters only to rule (c); a leaf reports nothing.
    """
    if t.is_leaf:
        return []
    out: list[tuple[str, str]] = []
    if t.decoration not in INTERNAL_DECORATIONS:
        out.append(("", "c"))
    t1, t2 = t.left, t.right
    if t2.decoration is not Decoration.N:
        out.append(("r", "a"))
    if t1.decoration not in LEFT_DECORATIONS:
        out.append(("l", "b"))
    if t1.decoration is Decoration.K and (
        not t1.is_leaf or t.decoration is not Decoration.CIRC or is_root
    ):
        out.append(("l", "c"))
    d1, d2 = degree(t1), degree(t2)
    if t1.decoration is Decoration.CIRC:
        if d1 < d2:
            out.append(("", "i"))
        if not t1.is_leaf and degree(t1.right) > d2:
            out.append(("", "i"))
    elif t1.decoration is Decoration.R and not d1 < d2:
        out.append(("", "ii"))
    return out


def validate_tree(tree: Tree) -> tuple[tuple[str, str], ...]:
    """Every node's :func:`node_violations`, sorted, as (node path, rule
    id); a valid tree has none.  Node paths are strings over {l, r} from
    the root, rule ids a, b, c, i, ii as in the module docstring.
    """
    violations: list[tuple[str, str]] = []
    stack = [(tree, "")]
    while stack:
        t, path = stack.pop()
        for where, rule in node_violations(t, not path):
            violations.append((path + where, rule))
        if not t.is_leaf:
            stack.append((t.right, path + "r"))
            stack.append((t.left, path + "l"))
    return tuple(sorted(violations))


def symmetry_factor(tree: Tree, j: int = 0) -> int:
    """The coefficient S^j(T); S(T) = symmetry_factor(T, 0).

    Leaves give j + 1.  At an internal node (d; T1, T2) with T1 itself an
    internal circ-rooted node whose right subtree T4 satisfies
    |T4| = |T2|, the left recursion deepens: (j+1) S^{j+1}(T1) S^0(T2).
    Otherwise (j+1) S^0(T1) S^0(T2).  The deepening case applies for every
    node decoration d, which is what makes the left-comb product formula
    S(comb) = p! * prod S(T_i) come out for equal-degree tails.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    violations = validate_tree(tree)
    if violations:
        raise TreeError(f"invalid tree {render(tree)}: {violations}")
    return _symmetry(tree, j)


def _symmetry(tree: Tree, j: int) -> int:
    if tree.is_leaf:
        return j + 1
    t1, t2 = tree.left, tree.right
    if (
        not t1.is_leaf
        and t1.decoration is Decoration.CIRC
        and degree(t1.right) == degree(t2)
    ):
        return (j + 1) * _symmetry(t1, j + 1) * _symmetry(t2, 0)
    return (j + 1) * _symmetry(t1, 0) * _symmetry(t2, 0)


def relabel_root(tree: Tree, decoration: Decoration) -> Tree:
    return Tree(decoration, tree.left, tree.right)


def canonical_key(tree: Tree):
    """Sort key following the decoration order circ < k < n < r."""
    rank = _RANK[tree.decoration]
    if tree.is_leaf:
        return (rank, (), ())
    return (rank, canonical_key(tree.left), canonical_key(tree.right))


def render(tree: Tree, fmt: str = "canonical") -> str:
    """Serialize a tree; formats: canonical, latex, dot."""
    if fmt == "canonical":
        return _render_canonical(tree)
    if fmt == "latex":
        return "\\begin{forest}\n" + _render_forest(tree, 1) + "\n\\end{forest}"
    if fmt == "dot":
        lines = ["digraph tree {", "  node [shape=circle];"]
        _render_dot(tree, lines, [0])
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format: {fmt}")


def _render_canonical(tree: Tree) -> str:
    d = tree.decoration.value
    if tree.is_leaf:
        return f"({d})"
    return f"({d} {_render_canonical(tree.left)} {_render_canonical(tree.right)})"


_LATEX_LABEL = {
    Decoration.CIRC: "$\\circ$",
    Decoration.K: "$k$",
    Decoration.N: "$n$",
    Decoration.R: "$r$",
}


def _render_forest(tree: Tree, depth: int) -> str:
    pad = "  " * depth
    label = _LATEX_LABEL[tree.decoration]
    if tree.is_leaf:
        return f"{pad}[{{{label}}}]"
    return (
        f"{pad}[{{{label}}}\n"
        + _render_forest(tree.left, depth + 1)
        + "\n"
        + _render_forest(tree.right, depth + 1)
        + f"\n{pad}]"
    )


def _render_dot(tree: Tree, lines: list[str], counter: list[int]) -> int:
    ident = counter[0]
    counter[0] += 1
    lines.append(f'  v{ident} [label="{tree.decoration.value}"];')
    if not tree.is_leaf:
        left_id = _render_dot(tree.left, lines, counter)
        right_id = _render_dot(tree.right, lines, counter)
        lines.append(f"  v{ident} -> v{left_id};")
        lines.append(f"  v{ident} -> v{right_id};")
    return ident


def parse(text: str) -> Tree:
    """Inverse of canonical render; reports the position of the first error."""
    tree, pos = _parse_tree(text, _skip_spaces(text, 0))
    pos = _skip_spaces(text, pos)
    if pos != len(text):
        raise ParseError("trailing input after tree", pos)
    return tree


def _skip_spaces(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] == " ":
        pos += 1
    return pos


def _parse_tree(text: str, pos: int) -> tuple[Tree, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '('", pos)
    pos += 1
    if pos >= len(text) or text[pos] not in _BY_LETTER:
        raise ParseError("expected decoration letter o/k/n/r", pos)
    dec = _BY_LETTER[text[pos]]
    pos += 1
    if pos < len(text) and text[pos] == ")":
        return Tree(dec), pos + 1
    if pos >= len(text) or text[pos] != " ":
        raise ParseError("expected ')' or ' '", pos)
    left, pos = _parse_tree(text, _skip_spaces(text, pos))
    if pos >= len(text) or text[pos] != " ":
        raise ParseError("expected ' ' before right subtree", pos)
    right, pos = _parse_tree(text, _skip_spaces(text, pos))
    if pos >= len(text) or text[pos] != ")":
        raise ParseError("expected ')'", pos)
    return Tree(dec, left, right), pos + 1
