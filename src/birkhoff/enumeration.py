"""Exhaustive generation of valid decorated trees and the tree classes.

The classes are:

* ``res_below(m)``: root r, degree < 2m (resonant corrections);
* ``circ_exact(m)``: root circ, degree = 2m (bracket terms of one order);
* ``n_exact(m)``: root n, degree = 2m (generator terms);
* ``circ_range(m, ell)``: root circ, 2m < degree <= 2*ell, containing no
  internal n-node of degree >= 2m (higher-order range terms).

Generation is a degree-indexed dynamic program: each new node joins two
smaller trees and is kept only if :func:`trees.node_violations` reports
nothing at it.  ``graft_comb`` implements the left-comb construction used
as an independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .trees import (
    Decoration,
    Tree,
    TreeError,
    canonical_key,
    iter_nodes,
    leaf,
    node,
    node_violations,
    render,
    symmetry_factor,
    validate_tree,  # unused here, but bench/layers.py wraps this binding
)

DEFAULT_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Raised when generation would exceed the configured tree cap."""


class ClassKind(enum.Enum):
    RES_BELOW = "res-below"
    CIRC_EXACT = "circ"
    N_EXACT = "n"
    CIRC_RANGE = "circ-range"


@dataclass(frozen=True)
class TreeClassQuery:
    kind: ClassKind
    m: int
    ell: Optional[int] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.kind is ClassKind.CIRC_RANGE:
            if self.ell is None or not self.m < self.ell:
                raise ValueError("circ-range requires m < ell")
        elif self.ell is not None:
            raise ValueError("ell only applies to circ-range")

    def describe(self) -> str:
        if self.kind is ClassKind.CIRC_RANGE:
            return f"{self.kind.value}(m={self.m}, ell={self.ell})"
        return f"{self.kind.value}(m={self.m})"


@dataclass(frozen=True)
class TreeSet:
    trees: tuple[Tree, ...]
    query: str

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def to_json(self) -> dict:
        return {
            "query": self.query,
            "trees": [render(t) for t in self.trees],
            "degrees": [t.degree for t in self.trees],
            "symmetry_factors": [symmetry_factor(t) for t in self.trees],
        }


def _subtree_pools(max_degree: int, cap: int) -> dict[int, list[Tree]]:
    """Trees valid as subtrees (k-leaf included), grouped by degree.

    Every validity rule is local to a node given subtree degrees, so the
    pools compose.  Trees rooted at a circ node with a k left child are
    valid only under a parent; callers filter them for standalone use.
    """
    pools: dict[int, list[Tree]] = {}
    count = 0

    def add(t: Tree) -> None:
        nonlocal count
        count += 1
        if count > cap:
            raise EnumerationCapError(
                f"tree cap {cap} exceeded at degree {t.degree}"
            )
        pools.setdefault(t.degree, []).append(t)

    # leaves by degree (the k-leaf first), so the cap trips in degree order
    for t in sorted(map(leaf, Decoration), key=lambda t: t.degree):
        if t.degree <= max_degree:
            add(t)
    for d in range(4, max_degree + 1, 2):
        for root in (Decoration.N, Decoration.R, Decoration.CIRC):
            for d1 in range(2, d + 1, 2):
                # copies: pools[d] grows while its own trees are children
                lefts = list(pools.get(d1, ()))
                rights = list(pools.get(d + 2 - d1, ()))
                for t1 in lefts:
                    for t2 in rights:
                        t = node(root, t1, t2)
                        if not node_violations(t, False):
                            add(t)
    return pools


def enumerate_valid(max_degree: int, cap: int = DEFAULT_CAP) -> TreeSet:
    """All standalone-valid trees with degree <= max_degree."""
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    pools = _subtree_pools(max_degree, cap)
    trees = [
        t
        for pool in pools.values()
        for t in pool
        if not node_violations(t, True)
    ]
    trees.sort(key=canonical_key)
    return TreeSet(tuple(trees), f"valid(max_degree={max_degree})")


# each class: its root decoration and its degree window lo < degree <= hi
_CLASSES = {
    ClassKind.RES_BELOW: (Decoration.R, lambda q: (0, 2 * q.m - 2)),
    ClassKind.CIRC_EXACT: (Decoration.CIRC, lambda q: (2 * q.m - 2, 2 * q.m)),
    ClassKind.N_EXACT: (Decoration.N, lambda q: (2 * q.m - 2, 2 * q.m)),
    ClassKind.CIRC_RANGE: (Decoration.CIRC, lambda q: (2 * q.m, 2 * q.ell)),
}


def tree_class(query: TreeClassQuery, cap: int = DEFAULT_CAP) -> TreeSet:
    root, window = _CLASSES[query.kind]
    lo, hi = window(query)
    if hi < 2:  # res_below(1): no tree has degree in (0, 0]
        return TreeSet((), query.describe())
    picked = [
        t
        for t in enumerate_valid(hi, cap)
        if t.decoration is root and lo < t.degree <= hi
    ]
    if query.kind is ClassKind.CIRC_RANGE:
        picked = [t for t in picked if not _has_big_n_node(t, 2 * query.m)]
    return TreeSet(tuple(picked), query.describe())


def _has_big_n_node(t: Tree, threshold: int) -> bool:
    return any(
        not v.is_leaf and v.decoration is Decoration.N and v.degree >= threshold
        for v in iter_nodes(t)
    )


def res_below(m: int) -> TreeClassQuery:
    return TreeClassQuery(ClassKind.RES_BELOW, m)


def circ_exact(m: int) -> TreeClassQuery:
    return TreeClassQuery(ClassKind.CIRC_EXACT, m)


def n_exact(m: int) -> TreeClassQuery:
    return TreeClassQuery(ClassKind.N_EXACT, m)


def circ_range(m: int, ell: int) -> TreeClassQuery:
    return TreeClassQuery(ClassKind.CIRC_RANGE, m, ell)


def graft_comb(t1: Tree, tail: list[Tree], root_dec: Decoration) -> Tree:
    """Left comb ((t1, tail[0]), tail[1]), ...; inner nodes circ, the
    outermost node root_dec.  Encodes {...{X, F}, ..., F} with optional
    projection at the top."""
    if not tail:
        raise TreeError("tail must be nonempty")
    if t1.decoration not in (Decoration.R, Decoration.CIRC, Decoration.K):
        raise TreeError("comb base must be rooted r, circ, or k")
    if root_dec not in (Decoration.CIRC, Decoration.N, Decoration.R):
        raise TreeError("comb root must be an internal decoration")
    for t in tail:
        if t.decoration is not Decoration.N:
            raise TreeError("comb tail elements must be rooted n")
    out = t1
    for i, t in enumerate(tail):
        dec = root_dec if i == len(tail) - 1 else Decoration.CIRC
        out = node(dec, out, t)
    return out
