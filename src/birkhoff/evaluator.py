"""Interpretation of decorated trees as Hamiltonian kernels.

The map ``pi`` reads a tree as an iterated Poisson bracket:

* leaves: k -> kinetic kernel h0; circ -> quartic kernel h1; r -> the
  resonant part of h1; n -> the phase-filtered h1 scaled by
  GENERATOR_SCALE (the generator building block);
* internal nodes: circ -> bracket of the children; r -> resonant part of
  the bracket; n -> GENERATOR_SCALE times the filtered bracket.  Each
  resonant part, like ``cancellation_check``'s non-resonant one, is one
  side of ``split_resonant``.

On top of pi sit the generator ledgers F_i (sum over n-rooted trees of
degree 2(i+1), weights 1/S), the truncated normal form (kinetic term plus
sums over the res_below / circ_exact / circ_range classes at index m + 2,
up to the cutoff 2*ell), and the cancellation check {h0, F_i} +
non-resonant circ_exact block = 0.  All three are one weighted sum,
``_assemble``, into a ledger that keeps the config it was built with.
Both ledgers, like the oracle's two, first call ``EvalConfig.check_order``.
A ledger's JSON text comes out in pieces, one per kernel and one per
stretch of layout between them, so a writer never holds the whole text.

``EvalConfig`` is frozen and holds no state.  Kernels are memoized at
module level: ``h0``/``h1`` per (lattice, cutoff), and each tree's
kernel per (config, root decoration) for a leaf and per (config, root
decoration, rendered left child, rendered right child) for an internal
node, so every ledger built in one process for the same config shares
its subtrees.  An internal node's bare bracket is the kernel of the circ
node over the same children, so trees that differ only in their root
decoration share one bracket, and each r or n projection of it is
computed once.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from ._value import Value
from .enumeration import (
    DEFAULT_CAP,
    circ_exact,
    circ_range,
    n_exact,
    res_below,
    tree_class,
)
from .hamiltonian import (
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
from .trees import (
    NESTED_RULE,
    Decoration,
    Tree,
    TreeError,
    render,
    symmetry_factor,
    validate_tree,
)

# the normal form after m transforms draws on tree classes at index
# m + CLASS_INDEX_OFFSET; pinned by the worked low-order expansions.
CLASS_INDEX_OFFSET = 2


class EvalConfig(Value):
    # cap bounds tree enumeration only; kernels and ledgers do not depend
    # on it
    __slots__ = ("lattice", "resonance", "cutoff", "cap")

    def __init__(self, lattice: ModeLattice, resonance: ResonanceConfig,
                 cutoff: int, cap: int = DEFAULT_CAP) -> None:
        if cutoff < 4 or cutoff % 2:
            raise ValueError("cutoff must be an even integer >= 4")
        Value.__init__(self, lattice, resonance, cutoff, cap)

    def check_order(self, m: int) -> None:
        """Order m reaches degree 2(m + 1), so it needs 1 <= m < ell;
        a higher one would give a vacuous zero kernel."""
        if not 1 <= m < self.cutoff // 2:
            raise ValueError("need 1 <= m < ell")

    def to_json(self) -> dict:
        return {
            "dim": self.lattice.dim,
            "radius": self.lattice.radius,
            "threshold": self.resonance.threshold,
            "cutoff": self.cutoff,
            "assumption_mode": NESTED_RULE,
        }

    def h0(self) -> Kernel:
        return _base_kernels(self.lattice, self.cutoff)[0]

    def h1(self) -> Kernel:
        return _base_kernels(self.lattice, self.cutoff)[1]


@functools.cache
def _base_kernels(lattice: ModeLattice, cutoff: int) -> tuple[Kernel, Kernel]:
    return h0(lattice, cutoff), h1(lattice, cutoff)


_KERNELS: dict[tuple, Kernel] = {}


def pi(tree: Tree, cfg: EvalConfig) -> Kernel:
    """Evaluate a valid tree to a kernel, truncating at cfg.cutoff.

    Every monomial of a tree's kernel has degree exactly |T|, so a tree
    above the cutoff gives the zero kernel, and ``_pi``, which recurses
    once per level, is reached only by trees at most cutoff deep.
    """
    violations = validate_tree(tree)
    if violations:
        raise TreeError(f"invalid tree {render(tree)}: {violations}")
    if tree.degree > cfg.cutoff:
        return Kernel(cfg.lattice, cfg.cutoff)
    return _pi(tree, cfg)


def _pi(tree: Tree, cfg: EvalConfig) -> Kernel:
    dec = tree.decoration
    children = () if tree.is_leaf else (render(tree.left), render(tree.right))
    key = (cfg, dec, *children)
    out = _KERNELS.get(key)
    if out is not None:
        return out
    if tree.is_leaf:
        out = cfg.h0() if dec is Decoration.K else cfg.h1()
    else:
        # the bare bracket is the circ node's kernel, which every root
        # decoration over the same two children shares
        bare = (cfg, Decoration.CIRC, *children)
        out = _KERNELS.get(bare)
        if out is None:
            out = _KERNELS[bare] = poisson_bracket(_pi(tree.left, cfg),
                                                   _pi(tree.right, cfg))
    if dec is Decoration.R:
        out, _ = split_resonant(out, cfg.resonance)
    elif dec is Decoration.N:
        out = apply_phase_filter(out, cfg.resonance).scale(GENERATOR_SCALE)
    _KERNELS[key] = out
    return out


class LedgerEntry(Value):
    __slots__ = ("tree", "weight", "kernel")


class ExpansionLedger(Value):
    __slots__ = ("entries", "total", "cfg", "m", "ell")

    def __init__(self, entries: tuple[LedgerEntry, ...], total: Kernel,
                 cfg: EvalConfig, m: Optional[int] = None,
                 ell: Optional[int] = None) -> None:
        Value.__init__(self, entries, total, cfg, m, ell)

    def _document(self, kernel) -> dict:
        """The ledger's JSON document, with ``kernel(k)`` for each kernel."""
        return {
            "m": self.m,
            "ell": self.ell,
            "config": self.cfg.to_json(),
            "entries": [
                {
                    "tree": render(e.tree),
                    "S": e.weight.denominator,
                    "weight": str(e.weight),
                    "kernel": kernel(e.kernel),
                }
                for e in self.entries
            ],
            "total": kernel(self.total),
        }

    def to_json(self) -> dict:
        return self._document(Kernel.to_json)

    def json_pieces(self) -> Iterator[str]:
        """``json.dumps(self.to_json(), sort_keys=True, indent=2)`` plus a
        newline, byte for byte once joined.  The json module lays out the
        document with a placeholder in each kernel's place; each head of
        that layout is followed by the pieces of the next kernel's
        ``Kernel.json_text``: the entries' kernels, then the total."""
        hole = "\0"  # no tree, weight or config value holds a NUL
        layout = json.dumps(self._document(lambda _: hole), sort_keys=True,
                            indent=2)
        *heads, tail = layout.split(json.dumps(hole))
        kernels = [(e.kernel, 3) for e in self.entries] + [(self.total, 1)]
        for head, (k, depth) in zip(heads, kernels):
            yield head
            yield from k.json_text(depth)
        yield tail + "\n"


def _assemble(trees: Iterable[Tree], cfg: EvalConfig, **meta) -> ExpansionLedger:
    """Ledger of the trees, each weighted 1/S, and their weighted sum."""
    entries = []
    total = Kernel(cfg.lattice, cfg.cutoff)
    for t in trees:
        weight = Fraction(1, symmetry_factor(t))
        kernel = pi(t, cfg)
        entries.append(LedgerEntry(t, weight, kernel))
        total = total + kernel.scale(weight)
    return ExpansionLedger(tuple(entries), total, cfg, **meta)


def f_transform(i: int, cfg: EvalConfig) -> ExpansionLedger:
    """Generator ledger F_i over n-rooted trees of degree 2(i + 1)."""
    cfg.check_order(i)
    trees = tree_class(n_exact(i + 1), cfg.cap)
    return _assemble(trees, cfg, m=i)


def normal_form(m: int, cfg: EvalConfig) -> ExpansionLedger:
    """Truncated normal form after m transforms at cutoff degree 2*ell,
    which cfg.cutoff holds.

    The ledger holds the kinetic entry (bare k-leaf, weight 1) and one
    entry per tree of res_below(m+2), circ_exact(m+2), and, when
    m + 2 < ell, circ_range(m+2, ell).
    """
    cfg.check_order(m)
    ell = cfg.cutoff // 2
    idx = m + CLASS_INDEX_OFFSET
    trees = [
        Tree(Decoration.K),
        *tree_class(res_below(idx), cfg.cap),
        *tree_class(circ_exact(idx), cfg.cap),
    ]
    if idx < ell:
        trees += tree_class(circ_range(idx, ell), cfg.cap)
    return _assemble(trees, cfg, m=m, ell=ell)


def cancellation_check(f: ExpansionLedger) -> Kernel:
    """Residual of {h0, F_i} + nonres(sum over circ_exact(i+1) of pi/S) for
    the generator ledger ``f = f_transform(i, cfg)``, whose order i and
    config it reads.

    The defining property of the generators is that this residual is the
    zero kernel: the bracket with the kinetic term cancels the targeted
    non-resonant block exactly.  The split is linear, so taking the
    non-resonant part of the weighted sum equals summing the parts.
    """
    cfg = f.cfg
    trees = tree_class(circ_exact(f.m + 1), cfg.cap)
    _, nonres = split_resonant(_assemble(trees, cfg).total, cfg.resonance)
    return poisson_bracket(cfg.h0(), f.total) + nonres
