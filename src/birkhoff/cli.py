"""Command line front end.

Subcommands: trees (enumerate a tree class), expand (normal form ledger),
f-transform (generator ledger), verify (tree expansion versus brute-force
iteration), render (pretty-print one tree).  All but render take the
configuration flags; --cap bounds the tree enumeration of each.

Configuration precedence: explicit flags > JSON config file (--config or
the BIRKHOFF_CONFIG environment variable) > defaults (dim 1, K 2, N 0,
cap 10^6).  All JSON output is deterministic: sorted keys, exact
rationals as strings, written in pieces as they are made.  A saved
ledger is read by one json.load, each entry's kernel dropped unread as
it is parsed.  Exit codes:
0 success / all residuals empty, 1 nonempty verification residual,
2 configuration or input errors, an --out file or a stdout that cannot
be written (say its reader has gone), 3 an internal error (its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from typing import Iterable

from .enumeration import (
    ClassKind,
    DEFAULT_CAP,
    EnumerationCapError,
    TreeClassQuery,
    tree_class,
)
from .evaluator import (
    EvalConfig,
    ExpansionLedger,
    cancellation_check,
    f_transform,
    normal_form,
)
from .hamiltonian import Kernel, ModeLattice, ResonanceConfig
from .oracle import birkhoff_iterate, compare, generators_from_recursion
from .trees import NESTED_RULE, ParseError, parse, render

CONFIG_ENV = "BIRKHOFF_CONFIG"

# the config-file keys, each also a flag of the same name
_DEFAULTS = {"dim": 1, "K": 2, "N": 0, "cap": DEFAULT_CAP}


class CliError(Exception):
    """User-facing configuration or input error; maps to exit code 2."""


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # bad JSON, bad UTF-8 and an integer too long to read: each a ValueError
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    """The checked settings: flags over the config file over defaults."""
    loaded = _load_config_file(args.config)
    unknown = sorted(set(loaded) - set(_DEFAULTS))
    if unknown:
        raise CliError(f"unknown config key {unknown[0]!r}")
    merged = {**_DEFAULTS, **loaded}
    for key in _DEFAULTS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    # JSON integers only: int() would truncate 1.9 and take true as 1
    for key, value in merged.items():
        if type(value) is not int:
            raise CliError(f"dim, K, N and cap must be integers: "
                           f"{key} is {value!r}")
    if merged["N"] < 0 or min(merged["dim"], merged["K"], merged["cap"]) < 1:
        raise CliError("need dim >= 1, K >= 1, N >= 0, cap >= 1")
    return merged


def _eval_config(settings: dict, cutoff: int) -> EvalConfig:
    return EvalConfig(ModeLattice(settings["dim"], settings["K"]),
                      ResonanceConfig(settings["N"]), cutoff, settings["cap"])


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(stream, pieces: Iterable[str], encoding: str) -> None:
    """Write each text piece, encoded, to the binary ``stream``.  An
    unbuffered stream may take only part of a write, as a pipe does when
    its reader goes, so each count is checked and the rest written again,
    which meets the closed pipe."""
    for piece in pieces:
        data = memoryview(piece.encode(encoding))
        while data:
            written = stream.write(data)
            if not written:
                raise OSError(f"wrote {written!r} of {len(data)} bytes")
            data = data[written:]
    stream.flush()


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the text pieces to ``out``, or to stdout, one at a time."""
    if out:
        try:
            with open(out, "wb") as fh:
                _write(fh, pieces, "utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    elif not hasattr(sys.stdout, "buffer"):  # say, a redirect to a StringIO
        sys.stdout.writelines(pieces)
    else:
        # beneath the text layer, which drops the rest of a short write;
        # what that layer already holds goes first
        sys.stdout.flush()
        try:
            _write(sys.stdout.buffer, pieces, sys.stdout.encoding)
        except OSError as exc:
            # say the reader has gone; what stdout still buffers goes to
            # devnull, so the interpreter's final flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CliError(f"cannot write stdout: {exc}") from exc


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_trees(args: argparse.Namespace) -> int:
    cap = _resolve(args)["cap"]
    try:
        query = TreeClassQuery(ClassKind(args.kind), args.m, args.ell)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    trees = tree_class(query, cap)
    payload = query.to_json(trees)
    if args.format in ("latex", "dot"):
        payload["renders"] = [render(t, args.format) for t in trees]
    _emit([_json_text(payload)], args.out)
    _note(f"count={len(trees)} degrees={payload['degrees']}")
    return 0


def _write_ledger(ledger: ExpansionLedger, out: str | None) -> None:
    _emit(ledger.json_pieces(), out)
    _note(f"{'tree':<42} {'S':>4} {'#monomials':>10}")
    for e in ledger.entries:
        _note(f"{render(e.tree):<42} {e.weight.denominator:>4} "
              f"{len(e.kernel):>10}")
    _note(f"total monomials: {len(ledger.total)}")


def cmd_expand(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    if args.m < 1 or args.ell <= args.m:
        raise CliError("need 1 <= m < ell")
    ec = _eval_config(settings, 2 * args.ell)
    _write_ledger(normal_form(args.m, ec), args.out)
    return 0


def cmd_f_transform(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    if args.m < 1:
        raise CliError("need m >= 1")
    ec = _eval_config(settings, 2 * (args.m + 1))
    _write_ledger(f_transform(args.m, ec), args.out)
    return 0


def _check_entry(n: int, entry) -> None:
    """Ledger entry ``n`` must be an object whose tree parses and whose
    weight is 1/S for a positive integer S."""
    if type(entry) is not dict:
        raise ValueError(f"entry {n} is not an object")
    tree, factor = entry.get("tree"), entry.get("S")
    if type(tree) is not str:
        raise ValueError(f"entry {n} tree must be a string: {tree!r}")
    try:
        parse(tree)
    except ParseError as exc:
        raise ValueError(f"entry {n} tree {tree!r}: {exc}") from exc
    # a JSON integer: 2.0 and true compare equal to 2 and 1
    if type(factor) is not int or factor < 1:
        raise ValueError(f"entry {n} {tree} has S {factor!r}, "
                         f"not a positive integer")
    weight = str(Fraction(1, factor))
    if entry.get("weight") != weight:
        raise ValueError(f"entry {n} {tree} has weight "
                         f"{entry.get('weight')!r}, not {weight!r}")


def _drop_kernel(obj: dict) -> dict:
    """The object hook of the ledger's ``json.load``: an object loses its
    ``kernel``, which only the entries have, and the entries' kernels are
    nearly all of a ledger's terms.  The parser finishes an object after
    the objects inside it, so each entry's kernel is freed before the next
    entry is read, and no two are alive at once."""
    obj.pop("kernel", None)
    return obj


def _read_ledger(path: str, m: int, ec: EvalConfig) -> Kernel:
    """The total of a saved expand ledger made at exactly this request."""
    try:
        with open(path, encoding="utf-8") as fh:
            # the document holds no cycles, and the cyclic collector would
            # walk every container json.load allocates: pause it; the hook
            # drops each entry's kernel as soon as it is read
            collecting = gc.isenabled()
            gc.disable()
            try:
                data = json.load(fh, object_hook=_drop_kernel)
            finally:
                if collecting:
                    gc.enable()
        if type(data) is not dict:
            raise ValueError("the document is not a JSON object")
        if type(data.get("entries")) is not list:
            raise ValueError("entries must be an array")
        for n, entry in enumerate(data["entries"]):
            _check_entry(n, entry)
        recorded = {"m": data["m"], "ell": data["ell"], **data["config"]}
        raw = data["total"]
        # a codec spans all (2K+1)^dim modes, so the total's lattice is
        # checked before one is built; from_json refuses a non-integer
        on_lattice = all(
            type(raw[key]) is not int or raw[key] == want
            for key, want in [("dim", ec.lattice.dim),
                              ("radius", ec.lattice.radius),
                              ("max_degree", ec.cutoff)])
        if on_lattice:
            total = Kernel.from_json(raw)
    except (OSError, RecursionError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot read ledger {path}: {exc}") from exc
    for key, want in {"m": m, "ell": ec.cutoff // 2, **ec.to_json()}.items():
        got = recorded.get(key)
        # same type too: 2.0 and true compare equal to 2 and 1
        if type(got) is not type(want) or got != want:
            raise CliError(f"ledger {path} has {key} {got!r}, "
                           f"the request {want!r}")
    if not on_lattice:
        raise CliError(f"ledger {path} total is not on its config's "
                       f"lattice and cutoff")
    return total


def cmd_verify(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    if args.m < 1 or args.ell <= args.m:
        raise CliError("need 1 <= m < ell")
    ec = _eval_config(settings, 2 * args.ell)
    # a saved ledger is checked against the request before the oracle runs
    total = _read_ledger(args.ledger, args.m, ec) if args.ledger else None
    oracle = birkhoff_iterate(args.m, ec)
    if total is None:
        total = normal_form(args.m, ec).total
    report = compare(total, oracle.normal_form)
    checks = {"normal_form": report.equal}
    if not args.ledger:
        recursions = generators_from_recursion(args.m, ec)
        for i, recursion in enumerate(recursions, start=1):
            f = f_transform(i, ec)
            checks[f"cancellation_{i}"] = cancellation_check(f).is_zero
            checks[f"f_transform_{i}"] = compare(f.total, recursion).equal
    payload = report.to_json()
    payload["checks"] = checks
    _emit([_json_text(payload)], args.out)
    ok = all(checks.values())
    _note("all checks passed" if ok else f"FAILED: {checks}")
    return 0 if ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    try:
        tree = parse(args.tree)
    except ParseError as exc:
        raise CliError(str(exc)) from exc
    _emit([render(tree, args.format) + "\n"], None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, help="lattice dimension")
    common.add_argument("--K", type=int, help="lattice radius")
    common.add_argument("--N", type=int, help="resonance threshold")
    # the flag stays for existing command lines; rule (i) has one reading
    common.add_argument("--assumption-mode", choices=[NESTED_RULE],
                        help="nested size rule")
    common.add_argument("--cap", type=int, help="tree enumeration cap")
    common.add_argument("--config", help="JSON config file path")
    common.add_argument("--out", help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="birkhoff",
        description="decorated-tree normal form engine for truncated cubic NLS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", parents=[common], help="enumerate a tree class")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in ClassKind])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int)
    p.add_argument("--format", default="json",
                   choices=["json", "latex", "dot"])
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("expand", parents=[common],
                       help="normal form expansion ledger")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("f-transform", parents=[common],
                       help="generator ledger F_m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_f_transform)

    p = sub.add_parser("verify", parents=[common],
                       help="tree expansion versus brute-force iteration")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--ledger", help="check a saved expand ledger instead")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="pretty-print a tree")
    p.add_argument("--tree", required=True, help="canonical tree string")
    p.add_argument("--format", default="canonical",
                   choices=["canonical", "latex", "dot"])
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, EnumerationCapError) as exc:
        _note(f"error: {exc}")
        return 2
    except Exception:  # a bug, not a failed identity or bad input
        import traceback  # off the start-up path

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
