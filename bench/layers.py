"""Per-layer tracing of one birkhoff CLI job, installed from outside.

``install()`` wraps the public functions of each ``birkhoff`` module at
the place where their consumer looked them up.  ``from .hamiltonian
import poisson_bracket`` copies the binding into the importing module,
so patching ``birkhoff.hamiltonian.poisson_bracket`` alone would miss
every call; the bracket is wrapped once as ``birkhoff.evaluator.
poisson_bracket`` and once as ``birkhoff.oracle.poisson_bracket``, which
is also how its time is split by caller.  ``Kernel`` and ledger methods
are patched on their classes.

Every span records self time: its duration minus the time of the spans
it encloses.  The bracket counters are computed from the operands and
the result, inside their own span (``bench.counting_s``) so that their
cost is charged to no layer.  Whatever no span covers is ``cli.self_s``,
so the spans plus ``cli.self_s`` add up to the job's wall time.

``GaussianRational`` (module ``coeff``) is deliberately left alone: it
is called millions of times per job, and its cost shows inside
``hamiltonian.bracket_s``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import Counter
from time import perf_counter

import birkhoff.cli as cli
import birkhoff.enumeration as enumeration
import birkhoff.evaluator as evaluator
import birkhoff.hamiltonian as hamiltonian
import birkhoff.oracle as oracle
import birkhoff.trees as trees

CALLERS = ("evaluator", "oracle")

# span name -> (module, attribute) bindings it wraps; an attribute on a
# class is patched on the class.
SPANS = {
    "hamiltonian.kernel_add_s": [(hamiltonian.Kernel, "__add__")],
    "hamiltonian.kernel_scale_s": [(hamiltonian.Kernel, "scale")],
    "hamiltonian.filter_s": [
        (evaluator, "apply_phase_filter"),
        (evaluator, "split_resonant"),
        (oracle, "apply_phase_filter"),
    ],
    "hamiltonian.h1_s": [(evaluator, "h1")],
    "evaluator.normal_form_s": [(cli, "normal_form")],
    "evaluator.f_transform_s": [(cli, "f_transform"), (evaluator, "f_transform")],
    "evaluator.cancellation_s": [(cli, "cancellation_check")],
    "oracle.iterate_s": [(cli, "birkhoff_iterate")],
    "oracle.recursion_s": [(cli, "generators_from_recursion")],
    "oracle.compare_s": [(cli, "compare")],
    "enumeration.tree_class_s": [(cli, "tree_class"), (evaluator, "tree_class")],
    "trees.validate_s": [
        (trees, "validate_tree"),
        (enumeration, "validate_tree"),
        (evaluator, "validate_tree"),
    ],
    "trees.symmetry_s": [
        (enumeration, "symmetry_factor"),
        (evaluator, "symmetry_factor"),
    ],
    "trees.render_s": [
        (trees, "render"),
        (enumeration, "render"),
        (evaluator, "render"),
        (cli, "render"),
    ],
    "cli.emit_s": [
        (evaluator.ExpansionLedger, "to_json"),
        (oracle.DiffReport, "to_json"),
    ],
}

# span name -> counter of its calls
CALL_COUNTERS = {
    "trees.validate_s": "trees.validate_calls",
}


class Tracer:
    """Self times by span name and exact counts, for one process."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.largest_kernel = 0
        # time spent in enclosed spans, one slot per open span; the
        # bottom slot collects the spans that run outside any other
        self._child_s = [0.0]
        self._bits: dict[object, dict] = {}

    def span(self, name: str, fn, counter: str | None = None):
        child_s = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - child_s.pop()
                child_s[-1] += elapsed
                if counter:
                    self.counts[counter] += 1

        return wrapper

    def counting(self, fn):
        """Run benchmark-side counting as its own span."""
        return self.span("bench.counting_s", fn)

    # -- bracket counters -------------------------------------------------

    def _groups(self, kernel) -> Counter:
        """Monomials by (degree, u-mode mask, ubar-mode mask)."""
        bit = self._bits.get(kernel.lattice)
        if bit is None:
            bit = {k: 1 << i for i, k in enumerate(kernel.lattice.modes())}
            self._bits[kernel.lattice] = bit
        groups: Counter = Counter()
        for m in kernel.support():
            u_mask = ubar_mask = 0
            for k in m.u:
                u_mask |= bit[k]
            for k in m.ubar:
                ubar_mask |= bit[k]
            groups[(m.degree, u_mask, ubar_mask)] += 1
        return groups

    def _count_bracket(self, caller: str, a, b, out) -> None:
        cutoff = a.max_degree
        in_cutoff = contracting = 0
        groups_b = self._groups(b).items()
        for (da, ua, ba), na in self._groups(a).items():
            for (db, ub, bb), nb in groups_b:
                if da + db - 2 > cutoff:
                    continue
                in_cutoff += na * nb
                # the bracket contracts u in a with ubar in b, and u in b
                # with ubar in a
                if ua & bb or ub & ba:
                    contracting += na * nb
        c = self.counts
        c[f"hamiltonian.bracket_calls.{caller}"] += 1
        c[f"hamiltonian.bracket_pairs_all.{caller}"] += len(a) * len(b)
        c[f"hamiltonian.bracket_pairs_in_cutoff.{caller}"] += in_cutoff
        c[f"hamiltonian.bracket_pairs_contracting.{caller}"] += contracting
        c[f"hamiltonian.bracket_terms_out.{caller}"] += len(out)

    def bracket(self, caller: str, fn):
        timed = self.span(f"hamiltonian.bracket_s.{caller}", fn)
        count = self.counting(self._count_bracket)

        @functools.wraps(fn)
        def wrapper(a, b):
            out = timed(a, b)
            count(caller, a, b, out)
            return out

        return wrapper

    # -- other counted layers ---------------------------------------------

    def pi(self, fn):
        timed = self.span("evaluator.pi_s", fn, "evaluator.pi_calls")

        def count(tree) -> None:
            self.counts["evaluator.internal_nodes"] += sum(
                1 for v in trees.iter_nodes(tree) if not v.is_leaf
            )

        count = self.counting(count)

        @functools.wraps(fn)
        def wrapper(tree, cfg):
            out = timed(tree, cfg)
            count(tree)
            return out

        return wrapper

    def calls(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def tree_class(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["enumeration.trees_out"] += len(out)
            return out

        return wrapper

    def kernel_init(self, fn):
        @functools.wraps(fn)
        def wrapper(kernel, *args, **kwargs):
            fn(kernel, *args, **kwargs)
            if len(kernel) > self.largest_kernel:
                self.largest_kernel = len(kernel)

        return wrapper

    def emit(self, fn):
        timed = self.span("cli.emit_s", fn)

        def size(out) -> int:
            if out:
                return os.path.getsize(out)
            sys.stdout.flush()
            return os.fstat(sys.stdout.fileno()).st_size

        size = self.counting(size)

        @functools.wraps(fn)
        def wrapper(payload, out):
            before = 0 if out else size(out)
            timed(payload, out)
            self.counts["cli.emit_bytes"] += size(out) - before

        return wrapper

    def json_load(self, fn):
        timed = self.span("cli.ledger_load_s", fn)

        @functools.wraps(fn)
        def wrapper(fh, *args, **kwargs):
            self.counts["cli.ledger_bytes"] += os.fstat(fh.fileno()).st_size
            return timed(fh, *args, **kwargs)

        return wrapper

    def report(self, wall_s: float) -> dict:
        """Span self times and counts that were recorded, plus the part of
        wall_s that no span covers; a layer never entered is absent."""
        out = dict(self.self_s)
        out["cli.self_s"] = wall_s - sum(self.self_s.values())
        out.update(self.counts)
        out["hamiltonian.largest_kernel_terms"] = self.largest_kernel
        return out


def _patch(owner, name: str, wrapper) -> None:
    if isinstance(owner.__dict__.get(name), staticmethod):
        wrapper = staticmethod(wrapper)
    setattr(owner, name, wrapper)


def install() -> Tracer:
    """Wrap every layer boundary of the imported birkhoff package."""
    t = Tracer()
    for name, bindings in SPANS.items():
        for owner, attr in bindings:
            _patch(owner, attr, t.span(name, getattr(owner, attr),
                                       CALL_COUNTERS.get(name)))
    for caller, module in zip(CALLERS, (evaluator, oracle)):
        module.poisson_bracket = t.bracket(caller, module.poisson_bracket)
    evaluator.pi = t.pi(evaluator.pi)
    oracle.taylor_compose = t.calls("oracle.taylor_calls", oracle.taylor_compose)
    for module in (cli, evaluator):
        module.tree_class = t.tree_class(module.tree_class)
    kernel = hamiltonian.Kernel
    kernel.__init__ = t.kernel_init(kernel.__init__)
    _patch(kernel, "from_json", t.span("cli.ledger_load_s", kernel.from_json))
    cli._emit = t.emit(cli._emit)
    # cli reads the ledger with json.load; give cli its own json namespace
    # so the timer sees that call and nothing else in the process
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.load = t.json_load(json.load)
    cli.json = proxy
    return t
