"""Decorated planar binary rooted trees.

Trees carry decorations from {circ, k, n, r} and encode iterated Poisson
brackets: internal nodes are brackets (plain, resonant-projected, or
phase-filtered) and leaves are the generating Hamiltonian kernels.  This
module defines the tree type, which stores its degree |T|, the structural
validity rules, the symmetry factor recursion, and text serialization.

No walk recurses, so any depth is handled: :func:`render`,
:func:`iter_nodes` and :func:`canonical_key` (so ``==`` and ``hash``) read
one document-order walker, and :func:`parse` is one loop.

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
stored subtree degrees, so all of them live in one function,
:func:`node_violations`.  :func:`validate_tree` walks a tree with it once
and returns the sorted violations, none for a valid tree; the enumeration
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
import itertools
import re
from typing import Iterator, Optional

from ._value import Value


class Decoration(enum.Enum):
    CIRC = "o"
    K = "k"
    N = "n"
    R = "r"

    def __repr__(self) -> str:
        return f"Decoration.{self.name}"


_RANK = {Decoration.CIRC: 0, Decoration.K: 1, Decoration.N: 2, Decoration.R: 3}
_BY_LETTER = {d.value: d for d in Decoration}
_SPACES = re.compile(" *")

INTERNAL_DECORATIONS = (Decoration.CIRC, Decoration.N, Decoration.R)
LEFT_DECORATIONS = (Decoration.R, Decoration.CIRC, Decoration.K)


class TreeError(ValueError):
    """Raised for structurally unusable tree arguments."""


class ParseError(TreeError):
    """Raised by :func:`parse`; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Tree(Value):
    """A decorated planar binary tree; a leaf has both children None.
    ``degree`` is |T|: 2 for a k-leaf, 4 for any other leaf, and
    |T1| + |T2| - 2 at a node.  Equality and hashing read
    :func:`canonical_key`, which the decorations and shape fix."""

    __slots__ = ("decoration", "left", "right", "degree")

    def __init__(self, decoration: Decoration, left: Optional["Tree"] = None,
                 right: Optional["Tree"] = None) -> None:
        if (left is None) != (right is None):
            raise TreeError("a node needs either zero or two children")
        if left is not None:
            d = left.degree + right.degree - 2
        else:
            d = 2 if decoration is Decoration.K else 4
        Value.__init__(self, decoration, left, right, d)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return canonical_key(self) == canonical_key(other)

    def __hash__(self) -> int:
        return hash(canonical_key(self))

    def __repr__(self) -> str:
        return f"Tree({render(self)!r})"


def _walk(tree: Tree) -> Iterator[tuple[Tree, int, bool]]:
    """Document order: (t, depth, False) on entering each node, and
    (t, depth, True) once more after an internal node's children."""
    stack = [(tree, 0, False)]
    while stack:
        item = t, depth, closing = stack.pop()
        yield item
        if not (closing or t.is_leaf):
            stack += [(t, depth, True), (t.right, depth + 1, False),
                      (t.left, depth + 1, False)]


def iter_nodes(tree: Tree) -> Iterator[Tree]:
    """Preorder traversal."""
    return (t for t, _, closing in _walk(tree) if not closing)


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
    d1, d2 = t1.degree, t2.degree
    if t1.decoration is Decoration.CIRC:
        if d1 < d2:
            out.append(("", "i"))
        if not t1.is_leaf and t1.right.degree > d2:
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


def symmetry_factor(tree: Tree) -> int:
    """The coefficient S(T) = S^0(T) of a valid tree.

    Leaves give S^j = j + 1.  At an internal node (d; T1, T2) with T1
    itself an internal circ-rooted node whose right subtree T4 satisfies
    |T4| = |T2|, the left recursion deepens: (j+1) S^{j+1}(T1) S^0(T2).
    Otherwise (j+1) S^0(T1) S^0(T2).  The deepening case applies for every
    node decoration d, which is what makes the left-comb product formula
    S(comb) = p! * prod S(T_i) come out for equal-degree tails.

    Unrolled, S^0 is the product over nodes v of (j_v + 1), where j is 0
    at the root and at each right child, and a left child's j is its
    parent's plus one where the parent deepens, else 0.
    """
    violations = validate_tree(tree)
    if violations:
        raise TreeError(f"invalid tree {render(tree)}: {violations}")
    s = 1
    stack = [(tree, 0)]
    while stack:
        t, j = stack.pop()
        s *= j + 1
        if not t.is_leaf:
            t1, t2 = t.left, t.right
            deepens = (not t1.is_leaf and t1.decoration is Decoration.CIRC
                       and t1.right.degree == t2.degree)
            stack.append((t1, j + 1 if deepens else 0))
            stack.append((t2, 0))
    return s


def canonical_key(tree: Tree) -> tuple[tuple[int, bool], ...]:
    """Sort key following the decoration order circ < k < n < r: the
    preorder (rank, is internal) pairs.  A full binary tree's preorder
    is prefix-free, so these sort as nested (rank, left, right) keys
    would, a leaf before an internal node of the same rank."""
    return tuple((_RANK[t.decoration], not t.is_leaf) for t in iter_nodes(tree))


# each letter in math mode, circ as \circ
_LATEX_LABEL = {**{d: f"${d.value}$" for d in Decoration},
                Decoration.CIRC: "$\\circ$"}


def render(tree: Tree, fmt: str = "canonical") -> str:
    """Serialize a tree; formats: canonical, latex, dot."""
    if fmt == "canonical":
        parts = []
        for t, depth, closing in _walk(tree):
            if closing:
                parts.append(")")
            else:  # every node but the root follows a space
                parts.append(f"{' ' if depth else ''}({t.decoration.value}"
                             f"{')' if t.is_leaf else ''}")
        return "".join(parts)
    if fmt == "latex":
        lines = ["\\begin{forest}"]
        for t, depth, closing in _walk(tree):
            pad = "  " * (depth + 1)
            if closing:
                lines.append(f"{pad}]")
            else:
                lines.append(f"{pad}[{{{_LATEX_LABEL[t.decoration]}}}"
                             f"{']' if t.is_leaf else ''}")
        lines.append("\\end{forest}")
        return "\n".join(lines)
    if fmt == "dot":
        lines = ["digraph tree {", "  node [shape=circle];"]
        ids = itertools.count()  # in preorder
        stack: list[int] = []  # the ids of open nodes and finished subtrees
        for t, _, closing in _walk(tree):
            if closing:  # its children are done; its own id stays on top
                right, left = stack.pop(), stack.pop()
                lines += [f"  v{stack[-1]} -> v{left};",
                          f"  v{stack[-1]} -> v{right};"]
            else:
                stack.append(next(ids))
                lines.append(f'  v{stack[-1]} [label="{t.decoration.value}"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format: {fmt}")


def parse(text: str) -> Tree:
    """Inverse of canonical render; reports the position of the first error.

    One loop over a stack of open nodes, each [decoration, left subtree
    or None]; a finished subtree closes every open node it completes.
    """
    stack: list[list] = []
    pos = _SPACES.match(text, 0).end()
    while True:
        if text[pos:pos + 1] != "(":
            raise ParseError("expected '('", pos)
        if text[pos + 1:pos + 2] not in _BY_LETTER:
            raise ParseError("expected decoration letter o/k/n/r", pos + 1)
        dec = _BY_LETTER[text[pos + 1]]
        pos += 2
        if text[pos:pos + 1] != ")":
            if text[pos:pos + 1] != " ":
                raise ParseError("expected ')' or ' '", pos)
            stack.append([dec, None])
            pos = _SPACES.match(text, pos).end()
            continue
        tree = Tree(dec)
        pos += 1
        while stack and stack[-1][1] is not None:
            if text[pos:pos + 1] != ")":
                raise ParseError("expected ')'", pos)
            dec, left = stack.pop()
            tree = Tree(dec, left, tree)
            pos += 1
        if not stack:
            break
        stack[-1][1] = tree
        if text[pos:pos + 1] != " ":
            raise ParseError("expected ' ' before right subtree", pos)
        pos = _SPACES.match(text, pos).end()
    pos = _SPACES.match(text, pos).end()
    if pos != len(text):
        raise ParseError("trailing input after tree", pos)
    return tree
