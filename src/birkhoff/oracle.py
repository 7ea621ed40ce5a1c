"""Brute-force normal form iteration, independent of the tree machinery.

The oracle composes the Hamiltonian with each generator flow by the
truncated Taylor series g + sum {g,F}^n / n!, builds the generators
either from the accumulated Hamiltonian (lowest still-uncancelled degree
slice, phase-filtered and scaled) or from the bookkeeping formula based
on the truncation terms R_n^m, and compares kernels coefficient-wise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._value import Value
from .evaluator import EvalConfig
from .hamiltonian import (
    GENERATOR_SCALE,
    Kernel,
    apply_phase_filter,
    poisson_bracket,
)


class SequenceInfo(Value):
    __slots__ = ("z", "c", "q")


def sequences(n: int, m: int) -> tuple[SequenceInfo, ...]:
    """Non-decreasing tuples with entries in 1..n summing to m, in
    lexicographic order.

    c is the product over distinct values of (multiplicity)!, q the
    length; these are the denominators and bracket counts of the
    truncation terms.
    """
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    infos = []
    for z in _nondecreasing(n, m, 1):
        c = 1
        for v in set(z):
            c *= math.factorial(z.count(v))
        infos.append(SequenceInfo(z, c, len(z)))
    return tuple(infos)


def _nondecreasing(n: int, m: int, lo: int):
    # the first entry rises through lo..n, so the tuples come out sorted
    if m == 0:
        yield ()
        return
    for v in range(lo, min(n, m) + 1):
        for rest in _nondecreasing(n, m - v, v):
            yield (v,) + rest


def truncation_term(
    g: Kernel, n: int, m: int, f_list: Sequence[Kernel]
) -> Kernel:
    """R_n^m(g): sum over z in s_n^m of {...{g, F_z1}, ..., F_zq} / c_z."""
    if len(f_list) < n:
        raise ValueError(f"need at least {n} generators")
    total = Kernel(g.lattice, g.max_degree)
    for info in sequences(n, m):
        nested = g
        for zi in info.z:
            nested = poisson_bracket(nested, f_list[zi - 1])
        total = total + nested.scale(Fraction(1, info.c))
    return total


def taylor_compose(g: Kernel, f: Kernel) -> Kernel:
    """g + sum_{n>=1} {g,F}^n / n!, finite at the kernels' fixed cutoff."""
    g._check_compatible(f)
    if f.is_zero:
        return g
    if f.min_term_degree() <= 2:
        raise ValueError("generator must have degree >= 4 everywhere")
    acc = g
    cur = g
    factorial = 1
    n = 0
    while True:
        n += 1
        factorial *= n
        cur = poisson_bracket(cur, f)
        if cur.is_zero:
            return acc
        acc = acc + cur.scale(Fraction(1, factorial))


class BirkhoffResult(Value):
    __slots__ = ("normal_form", "f_list")


def birkhoff_iterate(m: int, cfg: EvalConfig) -> BirkhoffResult:
    """Iterate the normal form reduction m times at cutoff 2*ell, which
    cfg.cutoff holds.

    At step i the generator is the phase-filtered degree-(2i+2) slice of
    the accumulated Hamiltonian, scaled by GENERATOR_SCALE; the
    Hamiltonian is then Taylor-composed with it.  No trees anywhere.
    """
    cfg.check_order(m)
    h = cfg.h0() + cfg.h1()
    f_list = []
    for i in range(1, m + 1):
        f_i = apply_phase_filter(
            h.degree_slice(2 * i + 2), cfg.resonance
        ).scale(GENERATOR_SCALE)
        f_list.append(f_i)
        h = taylor_compose(h, f_i)
    return BirkhoffResult(h, tuple(f_list))


def generators_from_recursion(m: int, cfg: EvalConfig) -> tuple[Kernel, ...]:
    """Build F_1..F_m from the truncation-term formula:

    F_i = GENERATOR_SCALE * filter(R_{i-1}^i(h0) + R_{i-1}^{i-1}(h1)),
    with F_1 = GENERATOR_SCALE * filter(h1).  Cross-checks the slice
    construction used by birkhoff_iterate; both take 1 <= m < ell.
    """
    cfg.check_order(m)
    f_list: list[Kernel] = []
    for i in range(1, m + 1):
        if i == 1:
            block = cfg.h1()
        else:
            block = truncation_term(cfg.h0(), i - 1, i, f_list) + (
                truncation_term(cfg.h1(), i - 1, i - 1, f_list)
            )
        f_list.append(
            apply_phase_filter(block, cfg.resonance).scale(GENERATOR_SCALE)
        )
    return tuple(f_list)


WORST = 3


class DiffReport(Value):
    """a - b, and its largest entries as (m, c_a, c_b): the rationals of
    m's coefficients i*c_a in a and i*c_b in b."""

    __slots__ = ("equal", "residual", "worst_monomials")

    def to_json(self) -> dict:
        return {
            "equal": self.equal,
            "residual": self.residual.to_json(),
            "worst_monomials": [
                {
                    **m.to_json(),
                    "coeff_a": {"re": "0", "im": str(ca)},
                    "coeff_b": {"re": "0", "im": str(cb)},
                }
                for m, ca, cb in self.worst_monomials
            ],
        }


def compare(a: Kernel, b: Kernel) -> DiffReport:
    """Exact coefficient-wise difference a - b.

    Its worst monomials are the WORST largest residual entries i*c by |c|;
    ties go to the smaller ``Monomial.sort_key``, so the report does not
    depend on the order the kernels were built in.
    """
    a._check_compatible(b)
    residual = a - b
    # items() is in sort_key order, and a stable sort keeps it among ties
    ranked = sorted(residual.items(), key=lambda mc: abs(mc[1]), reverse=True)
    worst_monomials = tuple(
        (m, a.coefficient(m), b.coefficient(m)) for m, _ in ranked[:WORST]
    )
    return DiffReport(residual.is_zero, residual, worst_monomials)
