"""Source mutations that the tier-1 suite must kill.

An entry is an id, the number of the change in CHANGES.md that first
recorded it, a file under src/birkhoff, and one or more edits, each an
exact text to replace, which must occur there once, and its replacement;
the edits are made in order.  The unmutated tree runs
first and must pass, then each mutant alone.  A run copies src/, tests/,
bench/, README.md and pyproject.toml (test_bench.py and test_readme.py
read the last three) into a fresh temporary directory and runs COMMAND
there, printing each mutant's first failing test and run time.  Exit
status 1 means a failed control run or a survivor, 2 an unknown id or an
entry with a text that does not occur exactly once.  Writes only under its
temporary directories; standard library only; pytest does not collect it.
Usage: python3 tests/mutants.py [ID ...]
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", "--hypothesis-seed=0"]
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis")
H, C, E = "hamiltonian.py", "_codec.py", "evaluator.py"
O, T, L = "oracle.py", "trees.py", "cli.py"
DEGREE_CHECK = ("        if degree > self.cutoff:\n            raise ValueError("
                "f\"monomial degree {degree} above cutoff\")\n")

MUTANTS = [  # (id, change, file, text, replacement, ...)
    ("contract-sign-first", 9, H, "cutoff, 1, out)", "cutoff, -1, out)"),
    ("contract-sign-second", 9, H, "cutoff, -1, out)", "cutoff, 1, out)"),
    ("contract-sign-both", 9, H, "c = c1 * (sign", "c = -c1 * (sign"),
    ("index-multiplicity", 9, H, "u_units[j], c * e)", "u_units[j], c)"),
    ("contract-multiplicity", 9, H, "c1 * (sign * e)", "c1 * sign"),
    ("degree-limit-up", 9, H, "limit = cutoff + 2", "limit = cutoff + 4"),
    ("degree-limit-down", 9, H, "limit = cutoff + 2", "limit = cutoff"),
    ("field-width", 9, C, "(cutoff // 2).bit", "(cutoff // 2 - 1).bit"),
    ("bracket-global-sign", 8, H, "out, dx * dy", "out, -dx * dy"),
    ("rows-reversed", 7, H, "in sorted(rows)]", "in sorted(rows)[::-1]]"),
    ("coordinate-separator", 10, C, 'f",{p5}".join', 'f", {p5}".join'),
    ("entry-depth", 10, E, "(e.kernel, 3)", "(e.kernel, 2)"),
    ("resonance-rule-strict", 10, H, "abs(phase) <=", "abs(phase) <"),
    ("r-node-keeps-nonresonant", 10, E, "out, _ = split", "_, out = split"),
    ("summary-column", 10, L, "tree):<42}", "tree):<41}"),
    ("compare-signed-rank", 12, O, "abs(mc[1])", "mc[1]"),
    ("n-leaf-degree", 14, T, "if decoration is Decoration.K",
     "if decoration in (Decoration.K, Decoration.N)"),
    ("sequences-reversed", 14, O, "in range(lo, min(n, m) + 1)",
     "in reversed(range(lo, min(n, m) + 1))"),
    ("canonical-leaf-flag", 15, T, "not t.is_leaf) for", "t.is_leaf) for"),
    ("parse-letter-position", 15, T, 'o/k/n/r", pos + 1)', 'o/k/n/r", pos)'),
    ("dot-edges-swapped", 15, T, "right, left = stack", "left, right = stack"),
    ("window-tight", 17, H, "max_degree + 3 - y", "max_degree + 2 - y"),
    ("window-max-degree", 17, H, "y.min_term_degree()", "y.term_degree()"),
    ("gc-not-paused", 20, L, "gc.disable()", "gc.isenabled()"),
    ("gc-always-resumed", 20, L, "if collecting:", "if True:"),
    ("gc-no-finally", 20, L, "finally:\n", "except BaseException:\n"
     "                raise\n            else:\n"),
    ("mirror-sign", 22, H, "v = c - s * q", "v = c + s * q"),
    ("mirror-one-parity", 22, H, "s = a._parity * b._parity",
     "s = (a._parity or 1) * (b._parity or 1)"),
    ("sort-key-swapped", 22, H, "(d | rank[u]) << bits | rank[b]",
     "(d | rank[b]) << bits | rank[u]"),
    ("bracket-parity-sign", 23, H, "group, -s)", "group, s)"),
    ("h1-extra-unit", 24, H, "nums.get(key, 0) + 1\n",
     "nums.get(key, 0) + 1 + (k1 == k2 == k3 and k1[-1] == 1)\n"),
    ("scale-parity", 25, H, "denominator, self._parity)", "denominator, 0)"),
    ("codec-at-import", 25, H, "lcm, -a._parity)\n",
     "lcm, -a._parity)\n\n\n_codec_for(ModeLattice(1, 1), 4).group\n"),
    ("expand-stabilizer", 26, C, "w * (order // n)", "w"),
    ("fold-stabilizer-ignored", 26, C, " key = high | (u if low is None "
     "else low[u])", " key = high | u"),
    ("stabilizer-max", 26, C, "u: min(pick(", "u: max(pick("),
    ("mirror-raw-key", 26, H, "mkey = high | (u if low is None else "
     "low[u])", "mkey = key & degree | (key & block) << ubar_shift | "
     "key >> ubar_shift & block"),
    ("rows-division", 26, H, "value(c, self.den * n)", "value(c, self.den)"),
    ("coefficient-division", 26, H, "0), self.den * n)", "0), self.den)"),
    ("value-arity", 27, "_value.py", "if len(values) != len(self.__slots__)",
     "if False"),
    ("h1-trivial-group", 28, H, "codec.group.fold(nums), 4, codec.group",
     "nums, 4, None"),
    ("filter-parity", 28, H, "lcm, -a._parity)", "lcm, 0)"),
    ("slice-parity", 28, H, "}, self.den, self._parity)", "}, self.den, 0)"),
    ("stabilizer-first", 29, C, "min(pick(images[u]))", "pick(images[u])[0]"),
    ("fill-wrong-unit", 29, C, "self.units[j]))", "self.units[j - 1]))"),
    ("mirror-unswapped", 29, H, "least[(key & degree) >> ubar_shift | key "
     "& block]\n        u = images[key >> ubar_shift & block][g]",
     "least[key >> ubar_shift]\n        u = images[key & block][g]"),
    ("json-tables-by-codec", 30, H, "_json_tables(self._codec, depth)",
     "_json_tables.__dict__.setdefault(self._codec, "
     "_json_tables(self._codec, depth))"),
    ("json-tables-swapped", 30, H, "u_text, ubar_text)", "ubar_text, u_text)"),
    ("piece-separator", 30, H, "if not start:", "if start >= 0:"),
    ("ratio-unreduced", 30, H, "g = math.gcd(c, den)", "g = 1"),
    ("rows-duplicates", 30, H, "rank[b]] = (v,", "rank[b], len(rows)] = (v,"),
    ("symmetry-factor-via-module", 6, E, "    symmetry_factor,\n    validate_",
     "    validate_", "    validate_tree,\n)\n",
     "    validate_tree,\n)\nfrom . import trees as _trees\n",
     "(1, symmetry_factor(t))", "(1, _trees.symmetry_factor(t))"),
    ("tables-shared-by-codecs", 11, C, "class _Codec:", "_SHARED = {}\n\n\n"
     "class _Codec:", "fields[b]))\n", "fields[b]))\n        self.fields, "
     "self.factors, self.norm = _SHARED.setdefault(\"tables\", (\n"
     "            self.fields, self.factors, self.norm))\n"),
    ("key-lattice-unchecked", 32, C, "index.get(mode)", "index.get(mode, 0)"),
    ("key-degree-after-sum", 32, C, DEGREE_CHECK, "", "        return key\n",
     DEGREE_CHECK + "        return key\n"),
    ("compatible-by-modes", 32, H, "_codec is not other._codec:\n"
     "            raise", "_codec.modes != other._codec.modes:\n"
     "            raise"),
    ("eq-by-modes", 32, H, "_codec is other._codec and",
     "_codec.modes == other._codec.modes and"),
    ("of-duplicate-kept", 33, H, "            if key in held:\n"
     "                raise", "            if False:\n                raise"),
    ("add-mixed-keeps-group", 33, H, "group = (self.group if self.group is "
     "other.group\n                 else self._codec.trivial)",
     "group = self.group"),
]


def edits(mutant):
    """A mutant's (text, replacement) pairs, in order."""
    return list(zip(mutant[3::2], mutant[4::2]))


def run(mutant=None):
    """(exit status, first failing test, seconds) of a fresh copy's run."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name), ignore=IGNORE)
            else:
                shutil.copy(ROOT / name, tmp)
        if mutant:
            path = Path(tmp, "src", "birkhoff", mutant[2])
            text = path.read_text()
            for old, new in edits(mutant):
                text = text.replace(old, new)
            path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        start = time.perf_counter()
        done = subprocess.run(COMMAND, cwd=tmp, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        seconds = time.perf_counter() - start
    failed = [line.split(" ", 1)[1].split(" - ")[0]
              for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or ["(none named)"])[0], seconds


def main(ids):
    chosen = [m for m in MUTANTS if not ids or m[0] in ids]
    bad = set(ids) - {m[0] for m in chosen} | {
        m[0] for m in chosen for old, _ in edits(m)
        if (ROOT / "src/birkhoff" / m[2]).read_text().count(old) != 1}
    if bad:
        print("unknown, or text not found exactly once:", *sorted(bad))
        return 2
    control, first, seconds = run()
    print(f"control exit {control}, {seconds:.1f} s", first if control else "")
    if control:
        return 1
    survivors = []
    for mutant in chosen:
        status, first, seconds = run(mutant)
        print("killed" if status else "SURVIVED", mutant[0],
              f"(change {mutant[1]}) {seconds:.1f} s", first if status else "",
              flush=True)
        if not status:
            survivors.append(mutant[0])
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
