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

``EvalConfig`` is frozen and holds no state.  Kernels are memoized at
module level: ``h0``/``h1`` per (lattice, cutoff), and each tree's kernel
per (config, rendered tree), so every ledger built in one process for the
same config shares its subtrees.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

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
    leaf,
    render,
    symmetry_factor,
    validate_tree,
)

# the normal form after m transforms draws on tree classes at index
# m + CLASS_INDEX_OFFSET; pinned by the worked low-order expansions.
CLASS_INDEX_OFFSET = 2


@dataclass(frozen=True)
class EvalConfig:
    lattice: ModeLattice
    resonance: ResonanceConfig
    cutoff: int
    # bounds tree enumeration only; kernels and ledgers do not depend on it
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.cutoff < 4 or self.cutoff % 2:
            raise ValueError("cutoff must be an even integer >= 4")

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


_KERNELS: dict[tuple[EvalConfig, str], Kernel] = {}


def pi(tree: Tree, cfg: EvalConfig) -> Kernel:
    """Evaluate a valid tree to a kernel, truncating at cfg.cutoff.

    Trees of degree above the cutoff evaluate to (partially) truncated
    kernels; since the tree degree bounds every monomial degree of the
    result, a tree wholly above the cutoff gives the zero kernel.
    """
    violations = validate_tree(tree)
    if violations:
        raise TreeError(f"invalid tree {render(tree)}: {violations}")
    return _pi(tree, cfg)


def _pi(tree: Tree, cfg: EvalConfig) -> Kernel:
    key = (cfg, render(tree))
    out = _KERNELS.get(key)
    if out is not None:
        return out
    dec = tree.decoration
    if not tree.is_leaf:
        out = poisson_bracket(_pi(tree.left, cfg), _pi(tree.right, cfg))
    elif dec is Decoration.K:
        out = cfg.h0()
    else:
        out = cfg.h1()
    if dec is Decoration.R:
        out = split_resonant(out, cfg.resonance).res
    elif dec is Decoration.N:
        out = apply_phase_filter(out, cfg.resonance).scale(GENERATOR_SCALE)
    _KERNELS[key] = out
    return out


@dataclass(frozen=True)
class LedgerEntry:
    tree: Tree
    weight: Fraction
    kernel: Kernel


@dataclass(frozen=True)
class ExpansionLedger:
    entries: tuple[LedgerEntry, ...]
    total: Kernel
    cfg: EvalConfig
    m: Optional[int] = None
    ell: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "ell": self.ell,
            "config": self.cfg.to_json(),
            "entries": [
                {
                    "tree": render(e.tree),
                    "S": e.weight.denominator,
                    "weight": str(e.weight),
                    "kernel": e.kernel.to_json(),
                }
                for e in self.entries
            ],
            "total": self.total.to_json(),
        }

    def json_text(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, indent=2)`` plus a
        newline, byte for byte, with each kernel written by
        ``Kernel.json_text``."""
        config = json.dumps(self.cfg.to_json(), sort_keys=True,
                            indent=2).replace("\n", "\n  ")
        entries = ",".join(
            f'\n    {{\n      "S": {json.dumps(e.weight.denominator)},'
            f'\n      "kernel": {e.kernel.json_text(3)},'
            f'\n      "tree": {json.dumps(render(e.tree))},'
            f'\n      "weight": {json.dumps(str(e.weight))}\n    }}'
            for e in self.entries
        )
        listing = f"[{entries}\n  ]" if entries else "[]"
        return (f'{{\n  "config": {config},'
                f'\n  "ell": {json.dumps(self.ell)},'
                f'\n  "entries": {listing},'
                f'\n  "m": {json.dumps(self.m)},'
                f'\n  "total": {self.total.json_text(1)}\n}}\n')


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
    if i < 1:
        raise ValueError("i must be positive")
    trees = tree_class(n_exact(i + 1), cfg.cap)
    return _assemble(trees, cfg, m=i)


def normal_form(m: int, cfg: EvalConfig) -> ExpansionLedger:
    """Truncated normal form after m transforms at cutoff degree 2*ell,
    which cfg.cutoff holds.

    The ledger holds the kinetic entry (bare k-leaf, weight 1) and one
    entry per tree of res_below(m+2), circ_exact(m+2), and, when
    m + 2 < ell, circ_range(m+2, ell).
    """
    ell = cfg.cutoff // 2
    if m < 1 or ell <= m:
        raise ValueError("need 1 <= m < ell")
    idx = m + CLASS_INDEX_OFFSET
    trees = [
        leaf(Decoration.K),
        *tree_class(res_below(idx), cfg.cap),
        *tree_class(circ_exact(idx), cfg.cap),
    ]
    if idx < ell:
        trees += tree_class(circ_range(idx, ell), cfg.cap)
    return _assemble(trees, cfg, m=m, ell=ell)


def cancellation_check(i: int, cfg: EvalConfig) -> Kernel:
    """Residual of {h0, F_i} + nonres(sum over circ_exact(i+1) of pi/S).

    The defining property of the generators is that this residual is the
    zero kernel: the bracket with the kinetic term cancels the targeted
    non-resonant block exactly.  The split is linear, so taking the
    non-resonant part of the weighted sum equals summing the parts.
    """
    f = f_transform(i, cfg)
    trees = tree_class(circ_exact(i + 1), cfg.cap)
    block = _assemble(trees, cfg).total
    return poisson_bracket(cfg.h0(), f.total) + split_resonant(
        block, cfg.resonance
    ).nonres
