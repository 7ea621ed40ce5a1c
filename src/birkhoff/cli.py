"""Command line front end.

Subcommands: trees (enumerate a tree class), expand (normal form ledger),
f-transform (generator ledger), verify (tree expansion versus brute-force
iteration), render (pretty-print one tree).  All but render take the
configuration flags; --cap bounds the tree enumeration of each.

Configuration precedence: explicit flags > JSON config file (--config or
the BIRKHOFF_CONFIG environment variable) > defaults (dim 1, K 2, N 0,
cap 10^6).  All JSON output is deterministic: sorted keys, exact
rationals as strings.  Exit codes: 0 success / all residuals empty,
1 nonempty verification residual, 2 configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
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
    # the flag stays for existing command lines; rule (i) has one reading
    if args.assumption_mode not in (None, NESTED_RULE):
        raise CliError(f"assumption mode must be {NESTED_RULE}: "
                       f"{args.assumption_mode!r}")
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


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_trees(args: argparse.Namespace) -> int:
    cap = _resolve(args)["cap"]
    try:
        query = TreeClassQuery(ClassKind(args.kind), args.m, args.ell)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ts = tree_class(query, cap)
    payload = ts.to_json()
    if args.format in ("latex", "dot"):
        payload["renders"] = [render(t, args.format) for t in ts]
    _emit(_json_text(payload), args.out)
    _note(f"count={len(ts)} degrees={payload['degrees']}")
    return 0


def _write_ledger(ledger: ExpansionLedger, out: str | None) -> None:
    _emit(ledger.json_text(), out)
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


def _read_ledger(path: str, m: int, ec: EvalConfig) -> Kernel:
    """The total of a saved expand ledger made at exactly this request."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
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
    except (OSError, json.JSONDecodeError, RecursionError, KeyError,
            TypeError, ValueError) as exc:
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
        for i in range(1, args.m + 1):
            checks[f"cancellation_{i}"] = cancellation_check(i, ec).is_zero
            checks[f"f_transform_{i}"] = compare(
                f_transform(i, ec).total, recursions[i - 1]
            ).equal
    payload = report.to_json()
    payload["checks"] = checks
    _emit(_json_text(payload), args.out)
    ok = all(checks.values())
    _note("all checks passed" if ok else f"FAILED: {checks}")
    return 0 if ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    try:
        tree = parse(args.tree)
    except ParseError as exc:
        raise CliError(str(exc)) from exc
    except RecursionError as exc:
        # parse recurses once per level, render no deeper
        raise CliError(f"tree nested too deeply: {exc}") from exc
    print(render(tree, args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, help="lattice dimension")
    common.add_argument("--K", type=int, help="lattice radius")
    common.add_argument("--N", type=int, help="resonance threshold")
    common.add_argument("--assumption-mode",
                        help=f"nested size rule; only {NESTED_RULE}")
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


if __name__ == "__main__":
    sys.exit(main())
