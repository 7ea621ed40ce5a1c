import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from birkhoff import cli, evaluator, hamiltonian
from birkhoff.cli import CONFIG_ENV, main
from birkhoff.hamiltonian import ModeLattice


# the stderr summary of `expand --m 1 --ell 3`
SUMMARY_1_3 = (
    "tree                                          S #monomials\n"
    "(k)                                           1          4\n"
    "(r)                                           1         15\n"
    "(o (o) (n))                                   1        101\n"
    "(o (o (k) (n)) (n))                           2         73\n"
    "total monomials: 120\n"
)


# sha256 of `trees` stdout per command line, and its stderr note
TREES_STDOUT = {
    ("--kind", "res-below", "--m", "4"): (
        "5fd580fc1fd30c65eb60ef82c09a0fec2ea3415b43451504a09de8171427c5a8",
        "count=3 degrees=[4, 6, 6]"),
    ("--kind", "circ", "--m", "4"): (
        "06a6640c87c8be859c9f25f2023ea5b7ce11fda906b07db8f108ca7f3701503e",
        "count=4 degrees=[8, 8, 8, 8]"),
    ("--kind", "n", "--m", "4"): (
        "abc535c43978eb856781f7429ad0d299e8c54b98ff1f7004591ad39e324a84a0",
        "count=4 degrees=[8, 8, 8, 8]"),
    ("--kind", "circ-range", "--m", "3", "--ell", "5"): (
        "ee4c86cddc23573c2c2a66a06865886fd04723e0e4d491ec7df7506c33fa191d",
        "count=4 degrees=[8, 10, 10, 8]"),
    ("--kind", "circ-range", "--m", "3", "--ell", "5", "--format", "latex"): (
        "81bd37595f8dbf7b095a7b3081cc1aaf959d74ce7a1a79e399b4e8d6a56f9575",
        "count=4 degrees=[8, 10, 10, 8]"),
    ("--kind", "circ-range", "--m", "3", "--ell", "5", "--format", "dot"): (
        "b7c7db4782e6da4258d38bb7104614bb75579aaf59ec9b4821239a5955eba742",
        "count=4 degrees=[8, 10, 10, 8]"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrees:
    def test_circ_4(self, capsys):
        code, out, err = run(capsys, "trees", "--kind", "circ", "--m", "4")
        assert code == 0
        data = json.loads(out)
        assert len(data["trees"]) == 4
        assert "count=4" in err

    def test_n_2(self, capsys):
        code, out, _ = run(capsys, "trees", "--kind", "n", "--m", "2")
        assert code == 0
        assert json.loads(out)["trees"] == ["(n)"]

    def test_circ_range(self, capsys):
        code, out, _ = run(
            capsys, "trees", "--kind", "circ-range", "--m", "3", "--ell", "4"
        )
        assert code == 0
        assert len(json.loads(out)["trees"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "circ-range", "--m", "3"),
            ("--kind", "circ", "--m", "3", "--ell", "9"),
        ],
        ids=["range-without-ell", "ell-without-range"],
    )
    def test_circ_range_needs_ell(self, capsys, argv):
        code, _, err = run(capsys, "trees", *argv)
        assert code == 2 and "ell" in err

    @pytest.mark.parametrize("argv", sorted(TREES_STDOUT),
                             ids=" ".join)
    def test_bytes_pinned(self, capsys, argv):
        code, out, err = run(capsys, "trees", *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest, err) == (0, TREES_STDOUT[argv][0],
                                       TREES_STDOUT[argv][1] + "\n")

    def test_latex_renders(self, capsys):
        code, out, _ = run(
            capsys, "trees", "--kind", "circ", "--m", "3",
            "--format", "latex",
        )
        assert code == 0
        data = json.loads(out)
        assert all(r.startswith("\\begin{forest}") for r in data["renders"])

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "trees", "--kind", "circ", "--m", "6", "--cap", "5"
        )
        assert code == 2 and "cap" in err

    def test_res_below_1_is_empty(self, capsys):
        code, out, _ = run(capsys, "trees", "--kind", "res-below", "--m", "1")
        assert code == 0 and json.loads(out)["trees"] == []

    def test_unwritable_out(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "trees.json"
        code, out, err = run(
            capsys, "trees", "--kind", "circ", "--m", "2",
            "--out", str(out_path),
        )
        assert code == 2 and "cannot write" in err and out == ""


class TestExpand:
    def test_ledger_1_3(self, capsys, tmp_path):
        out_path = tmp_path / "ledger.json"
        code, _, err = run(
            capsys, "expand", "--m", "1", "--ell", "3", "--out", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["entries"]) == 1 + 1 + 2
        assert "total monomials" in err

    def test_out_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "ledger.json"
        code, out, err = run(capsys, "expand", "--m", "1", "--ell", "3")
        assert code == 0 and err == SUMMARY_1_3
        assert run(capsys, "expand", "--m", "1", "--ell", "3",
                   "--out", str(out_path)) == (0, "", SUMMARY_1_3)
        assert out_path.read_bytes() == out.encode()

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "expand", "--m", "2", "--ell", "4",
                   "--out", str(a))[0] == 0
        assert run(capsys, "expand", "--m", "2", "--ell", "4",
                   "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_entries_above_the_cutoff_keep_their_bytes(self, capsys):
        # at m = ell - 1 the four circ_exact(m+2) trees lie wholly above
        # the cutoff: each root bracket meets an empty degree window and
        # its entry holds the zero kernel
        code, out, _ = run(capsys, "expand", "--m", "2", "--ell", "3")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert sum(not e["kernel"]["terms"] for e in entries) == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9eaccda11804d686cdc91f961eb646ea695b65b1c841bfd0f8eb3b116aabf1e1"
        )

    def test_bad_orders(self, capsys):
        # the CLI's own checks run before a config exists
        for argv, message in [
            (("expand", "--m", "3", "--ell", "3"), "need 1 <= m < ell"),
            (("verify", "--m", "3", "--ell", "3"), "need 1 <= m < ell"),
            (("f-transform", "--m", "0"), "need m >= 1"),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("argv", [
    ["expand", "--m", "2", "--ell", "4"],
    ["f-transform", "--m", "1"],
    ["verify", "--m", "1", "--ell", "3"],
], ids=["expand", "f-transform", "verify"])
def test_cap_bounds_every_enumeration(capsys, argv):
    code, _, err = run(capsys, *argv, "--cap", "1")
    assert code == 2 and "cap" in err


SRC = Path(__file__).resolve().parent.parent / "src"


class TestLedgerIO:
    @pytest.mark.parametrize("argv", [
        ("expand", "--m", "2", "--ell", "4"),
        ("f-transform", "--m", "2"),
    ], ids=["expand-2-4", "f-transform-2"])
    def test_out_matches_stdout(self, capsys, tmp_path, argv):
        out_path = tmp_path / "ledger.json"
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(out_path)) == (0, "", err)
        assert out_path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [
        ("render", "--tree", "(o (k) (n))"),
        ("expand", "--m", "1", "--ell", "3"),
        ("verify", "--m", "1", "--ell", "3"),
    ], ids=["render", "expand", "verify"])
    def test_text_only_stdout(self, capsys, tmp_path, argv):
        # in process, stdout may be a text stream with no binary buffer
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(list(argv))
        if argv[0] == "render":
            # render takes no --out: its bytes are those of a real stdout
            assert run(capsys, *argv)[:2] == (code, text.getvalue())
        else:
            out_path = tmp_path / "out.json"
            assert run(capsys, *argv, "--out", str(out_path))[0] == code
            assert out_path.read_text() == text.getvalue()
        assert code == 0

    def test_writer_holds_no_whole_ledger(self, capsys, tmp_path):
        # the expand --m 3 --ell 5 ledger: 8.2 MB, written in pieces
        cfg = evaluator.EvalConfig(ModeLattice(1, 2),
                                   hamiltonian.ResonanceConfig(0), 10)
        ledger = evaluator.normal_form(3, cfg)
        path = tmp_path / "ledger.json"
        tracemalloc.start()
        try:
            cli._write_ledger(ledger, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_pieces_are_bounded(self):
        # no piece of that ledger holds a whole kernel's text: the largest
        # kernel alone is 674 KB, a piece of 256 terms 169 KB at most
        cfg = evaluator.EvalConfig(ModeLattice(1, 2),
                                   hamiltonian.ResonanceConfig(0), 10)
        pieces = evaluator.normal_form(3, cfg).json_pieces()
        assert max(len(piece.encode()) for piece in pieces) < 200_000

    # 768 KB of ledger and 230 KB of dot, each more than a pipe holds, so
    # a write must meet the closed pipe.  Unbuffered, the dot text is one
    # write, cut short when the pipe closes; the rest of it is written
    # again, and that write sees the closed pipe.
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ("expand", "--m", "2", "--ell", "4"),
        ("render", "--format", "dot",
         "--tree", "(o " * 3000 + "(o)" + " (n))" * 3000),
    ], ids=["expand", "render"])
    def test_closed_stdout_exits_2(self, argv, unbuffered):
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "birkhoff.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert len(proc.stdout.read(16)) == 16
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        err = err.decode()
        assert proc.returncode == 2, err
        assert err.startswith("error: cannot write stdout: ")
        assert err.count("\n") == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("collecting", [True, False],
                             ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("edit, code", [
        (lambda text: text, 0),
        (lambda text: text[:-100], 2),
        (lambda text: b"[" * 200000, 2),
    ], ids=["good", "truncated", "deep"])
    def test_reader_pauses_the_collector(self, capsys, tmp_path, monkeypatch,
                                         collecting, edit, code):
        # the load runs with the collector paused, and the caller's
        # setting is back afterwards, whether the ledger reads or not
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        ledger.write_bytes(edit(ledger.read_bytes()))
        seen = []

        def load(fh, **kwargs):
            seen.append(gc.isenabled())
            return json_load(fh, **kwargs)

        json_load = cli.json.load
        monkeypatch.setattr(cli.json, "load", load)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            got = main(["verify", "--m", "1", "--ell", "3",
                        "--ledger", str(ledger)])
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert got == code and seen == [False]

    def test_reader_holds_no_entry_kernels(self, capsys, tmp_path):
        # the expand --m 3 --ell 5 ledger: its entries' kernels, 91% of
        # its terms, are read one at a time; read whole, the peak was
        # 3.1 times the file's size
        cfg = evaluator.EvalConfig(ModeLattice(1, 2),
                                   hamiltonian.ResonanceConfig(0), 10)
        ledger = evaluator.normal_form(3, cfg)
        path = tmp_path / "ledger.json"
        cli._write_ledger(ledger, str(path))
        tracemalloc.start()
        try:
            total = cli._read_ledger(str(path), 3, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == ledger.total
        assert peak < 2.5 * path.stat().st_size


def _ledger_text(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestLedgerDecoder:
    @pytest.mark.parametrize("argv", [
        ("expand", "--m", "1", "--ell", "3"),
        ("expand", "--m", "1", "--ell", "3", "--dim", "2", "--K", "1"),
        ("f-transform", "--m", "2"),
        ("f-transform", "--m", "1", "--dim", "2", "--K", "1"),
    ], ids=["expand-d1", "expand-d2", "f-transform-d1", "f-transform-d2"])
    def test_reads_what_json_reads(self, capsys, argv):
        text = _ledger_text(capsys, *argv)
        plain = json.loads(text)
        got = json.loads(text, object_hook=cli._drop_kernel)
        for key in ("m", "ell", "config", "total"):
            assert got[key] == plain[key], key
        # each entry without its kernel
        assert got["entries"] == [
            {key: value for key, value in entry.items() if key != "kernel"}
            for entry in plain["entries"]]
        assert got.keys() == plain.keys()

    def test_last_repeated_key_wins(self, capsys):
        text = _ledger_text(capsys, "expand", "--m", "1", "--ell", "3")
        first = '{"m": 7, ' + text[1:]
        last = text.rstrip()[:-1] + ', "m": 7}'
        for doc, m in [(first, 1), (last, 7)]:
            assert json.loads(doc, object_hook=cli._drop_kernel)["m"] == m
            assert json.loads(doc)["m"] == m

    def test_empty_containers(self):
        assert json.loads(" { } ", object_hook=cli._drop_kernel) == {}
        assert json.loads('{"entries": [ ]}',
                          object_hook=cli._drop_kernel) == {"entries": []}

    @staticmethod
    def _refused(capsys, path):
        code, out, err = run(capsys, "verify", "--m", "1", "--ell", "3",
                             "--ledger", str(path))
        assert code == 2 and out == "", err
        assert err.startswith("error: cannot read ledger"), err

    def test_truncated(self, capsys, tmp_path):
        text = _ledger_text(capsys, "expand", "--m", "1", "--ell", "3")
        path = tmp_path / "ledger.json"
        end = text.rindex("}")
        # offsets spread over the document, and the closing brace
        for cut in [*range(0, end, end // 97), end]:
            path.write_text(text[:cut])
            self._refused(capsys, path)

    @pytest.mark.parametrize("edit", [
        lambda text: text + "{}",
        lambda text: text + "x",
        lambda text: text.replace('"ell": 3,', '"ell": 3', 1),
        lambda text: text.replace('"ell": 3,', '"ell" 3,', 1),
        # between the entries, and inside one
        lambda text: text.replace("\n    },\n    {", "\n    }\n    {", 1),
        lambda text: text.replace('"S": 1,', '"S": 1', 1),
        lambda text: text.replace('"m": 1,', '"m": 1,,', 1),
        lambda text: text.rstrip()[:-1] + ",}",
        lambda text: "[" + text + "]",
        lambda text: "1",
        lambda text: '"ledger"',
        lambda text: "null",
        lambda text: "",
        lambda text: '{"entries": {}}',
        lambda text: '{"entries": 5}',
        lambda text: '{"entries": [' + "[" * 200000 + "]" * 200000 + "]}",
        lambda text: '{"entries": [' + '{"a": ' * 200000,
        lambda text: json.dumps({key: value for key, value
                                 in json.loads(text).items()
                                 if key != "entries"}),
    ], ids=["trailing-object", "trailing-text", "missing-comma",
            "missing-colon", "missing-comma-between-entries",
            "missing-comma-in-entry", "double-comma", "trailing-comma",
            "top-level-array", "top-level-number", "top-level-string",
            "top-level-null", "empty", "entries-object", "entries-number",
            "entries-nested-deep", "entries-nested-objects", "no-entries"])
    def test_malformed(self, capsys, tmp_path, edit):
        text = _ledger_text(capsys, "expand", "--m", "1", "--ell", "3")
        path = tmp_path / "ledger.json"
        path.write_text(edit(text))
        self._refused(capsys, path)

# edits of the total of an `expand --m 1 --ell 3` ledger, each of which
# `verify --ledger` must refuse
def _off_lattice(total):
    total["radius"] = 3


def _raise_cutoff(total):
    total["max_degree"] = 8
    total["terms"].append({"u": [[0]] * 4, "ubar": [[0]] * 4,
                           "re": "0", "im": "1"})


def _zero_off_lattice(total):
    # a zero coefficient is no licence for a mode off the lattice
    total["terms"].append({"u": [[9]], "ubar": [[9]], "re": "0", "im": "0"})


def _zero_above_cutoff(total):
    total["terms"].append({"u": [[0]] * 4, "ubar": [[0]] * 4,
                           "re": "0", "im": "0"})


def _split_term(total):
    # the canonical total holds 2i on u_{-2} ubar_{-2}; write it as i + i
    first = total["terms"][0]
    assert first["im"] == "2"
    first["im"] = "1"
    total["terms"].insert(0, dict(first))


def _zero_denominator(total):
    total["terms"][0]["im"] = "1/0"


def _fractional_mode(total):
    # |1.5| <= K, so only the type check refuses it
    total["terms"][0]["u"] = [[1.5]]


def _boolean_mode(total):
    total["terms"][0]["u"] = [[True]]


def _float_cutoff(total):
    # 6.0 == 6, so only the type check refuses it
    total["max_degree"] = 6.0


def _real_part_as(value):
    # the total's first "re" set to value; None drops the key
    def edit(total):
        first = total["terms"][0]
        if value is None:
            del first["re"]
        else:
            first["re"] = value
    return edit


def _coefficient_as(value):
    # the canonical total holds "im": "2" first; 2 and 2.0 equal it, and
    # true reads as 1, so only the type check refuses them
    def edit(total):
        first = total["terms"][0]
        assert first["im"] == "2"
        first["im"] = value
    return edit


class TestVerify:
    def test_full_run(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--out", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["equal"] is True
        assert all(data["checks"].values())
        assert "all checks passed" in err

    def test_builds_each_generator_ledger_once(self, capsys, monkeypatch):
        # the cancellation check takes the F_i ledger that verify built
        calls = []

        def counted(build):
            def wrapper(i, cfg):
                calls.append(i)
                return build(i, cfg)
            return wrapper

        monkeypatch.setattr(cli, "f_transform", counted(cli.f_transform))
        monkeypatch.setattr(evaluator, "f_transform",
                            counted(evaluator.f_transform))
        code, out, _ = run(capsys, "verify", "--m", "2", "--ell", "3")
        assert code == 0 and all(json.loads(out)["checks"].values())
        assert calls == [1, 2]

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        # a bug is neither a failed identity (1) nor bad input (2)
        def broken(m, cfg):
            raise RuntimeError("broken normal form")

        monkeypatch.setattr(cli, "normal_form", broken)
        code, out, err = run(capsys, "verify", "--m", "1", "--ell", "2")
        assert code == 3 and out == ""
        assert err.startswith("Traceback")
        assert err.endswith("RuntimeError: broken normal form\n")

    def test_interrupt_passes_through(self, monkeypatch):
        def interrupted(m, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "normal_form", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--m", "1", "--ell", "2"])

    def test_saved_ledger_round_trip(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        code, out, _ = run(
            capsys, "verify", "--m", "1", "--ell", "3",
            "--ledger", str(ledger),
        )
        assert code == 0
        assert json.loads(out)["equal"] is True

    @pytest.mark.parametrize("flag", ["--ledger", "--config"])
    def test_deeply_nested_json(self, capsys, tmp_path, flag):
        # json.load raises RecursionError, which is bad input, not a
        # failed identity
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "verify", "--m", "1", "--ell", "3",
                             flag, str(path))
        assert code == 2 and "cannot read" in err and out == ""

    def test_mismatched_ledger(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--N", "3",
            "--out", str(ledger))
        code, _, err = run(
            capsys, "verify", "--m", "1", "--ell", "3",
            "--ledger", str(ledger),
        )
        assert code == 2 and "threshold" in err

    @pytest.mark.parametrize("field, flags", [
        ("ell", ("--ell", "4")),
        ("dim", ("--dim", "2", "--K", "1")),
    ])
    def test_ledger_config_mismatch(self, capsys, tmp_path, field, flags):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", *flags,
            "--ledger", str(ledger),
        )
        assert code == 2 and f"has {field} " in err and out == ""

    @pytest.mark.parametrize("key, value", [
        ("m", 1.0),
        ("dim", True),
        ("radius", 2.0),
    ], ids=["float-m", "boolean-dim", "float-radius"])
    def test_ledger_needs_integers(self, capsys, tmp_path, key, value):
        # each value compares equal to the request's; written in the
        # config and the total alike where both record it
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        for block in (data, data["config"], data["total"]):
            if key in block:
                block[key] = value
        ledger.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and key in err and out == ""

    def test_ledger_oversized_integer(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        text = ledger.read_text()
        ledger.write_text(text.replace('"m": 1', '"m": 1' + "0" * 5000, 1))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and "cannot read ledger" in err and out == ""

    def test_ledger_records_another_nested_rule(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        data["config"]["assumption_mode"] = "nested-ge"
        ledger.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and "has assumption_mode " in err and out == ""

    @pytest.mark.parametrize("edit, message", [
        (_off_lattice, "lattice"),
        (_raise_cutoff, "cutoff"),
        (_zero_off_lattice, "mode (9,) outside lattice"),
        (_zero_above_cutoff, "degree 8 above cutoff"),
        (_split_term, "listed twice"),
        (_zero_denominator, "zero denominator"),
        (_fractional_mode, "integers"),
        (_boolean_mode, "integers"),
        (_float_cutoff, "max_degree must be an integer"),
        (_real_part_as("1"), "real part"),
        (_real_part_as(0), "re must be a string"),
        (_real_part_as(False), "re must be a string"),
        (_real_part_as("0/0"), "zero denominator"),
        (_real_part_as("x"), "Invalid literal"),
        (_real_part_as(None), "'re'"),
        (_coefficient_as(2), "im must be a string"),
        (_coefficient_as(2.0), "im must be a string"),
        (_coefficient_as(True), "im must be a string"),
        # Fraction reads each of these, and would expand "1e99999999" in
        # full; the writer emits none of them
        (_coefficient_as("1e400"), "Invalid literal"),
        (_coefficient_as("2.0"), "Invalid literal"),
        (_coefficient_as("+2"), "Invalid literal"),
        (_coefficient_as(" 2 "), "Invalid literal"),
        (_real_part_as("0.0"), "Invalid literal"),
    ], ids=["radius", "max-degree", "zero-off-lattice", "zero-above-cutoff",
            "split-term", "zero-denominator",
            "fractional-mode", "boolean-mode", "float-max-degree",
            "real-part", "integer-real-part", "boolean-real-part",
            "zero-denominator-real-part", "non-number-real-part",
            "missing-real-part", "integer-coefficient", "float-coefficient",
            "boolean-coefficient", "exponent-coefficient",
            "decimal-coefficient", "plus-coefficient", "spaced-coefficient",
            "decimal-real-part"])
    def test_bad_ledger_total(self, capsys, tmp_path, edit, message):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        edit(data["total"])
        ledger.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and message in err and out == ""

    # entry 1 of the `expand --m 1 --ell 3` ledger is the r-leaf, S 1
    @pytest.mark.parametrize("edit, message", [
        (lambda entry: entry.update(S=2), "has weight '1', not '1/2'"),
        (lambda entry: entry.update(S=0), "has S 0, not a positive integer"),
        (lambda entry: entry.update(S=1.0), "has S 1.0, not a positive"),
        (lambda entry: entry.update(S=True), "has S True, not a positive"),
        (lambda entry: entry.pop("S"), "has S None, not a positive"),
        (lambda entry: entry.update(weight="1/1"), "weight '1/1', not '1'"),
        (lambda entry: entry.update(weight=1), "has weight 1, not '1'"),
        (lambda entry: entry.update(tree="(o (k)"), "tree '(o (k)': expected"),
        (lambda entry: entry.update(tree=5), "tree must be a string: 5"),
        (lambda entry: entry.clear(), "tree must be a string: None"),
    ], ids=["S", "zero-S", "float-S", "boolean-S", "missing-S",
            "unreduced-weight", "integer-weight", "bad-tree", "number-tree",
            "empty-entry"])
    def test_bad_ledger_entry(self, capsys, tmp_path, edit, message):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        assert data["entries"][1]["tree"] == "(r)"
        edit(data["entries"][1])
        ledger.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and out == "", err
        assert "entry 1 " in err and message in err, err

    def test_entry_that_is_not_an_object(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        data["entries"][2] = ["(o (o) (n))"]
        ledger.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and out == "" and "entry 2 is not an object" in err

    def test_zero_real_part_as_a_fraction(self, capsys, tmp_path):
        # "0/7" is a string that reads as zero, so it is accepted
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        _real_part_as("0/7")(data["total"])
        ledger.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 0 and json.loads(out)["equal"] is True

    def test_failed_identity_report(self, capsys, tmp_path):
        # the total's 2i on u_{-2} ubar_{-2} written as -i/3: a valid
        # ledger whose identity fails, so the report names that monomial
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        first = data["total"]["terms"][0]
        assert (first["u"], first["ubar"], first["im"]) == ([[-2]], [[-2]], "2")
        first["im"] = "-1/3"
        ledger.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 1 and "FAILED" in err
        report = json.loads(out)
        assert report["worst_monomials"] == [{
            "u": [[-2]], "ubar": [[-2]],
            "coeff_a": {"re": "0", "im": "-1/3"},
            "coeff_b": {"re": "0", "im": "2"},
        }]
        assert [t["im"] for t in report["residual"]["terms"]] == ["-7/3"]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "467f1a582d82668eb561d35c7cf69a495bbb99f3d560797f381b26cdcb6f0e4d"
        )

    def test_corrupted_ledger(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, _, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(bad)
        )
        assert code == 2 and "error" in err

    def test_total_off_the_lattice_builds_no_codec(self, capsys, tmp_path,
                                                   monkeypatch):
        # the total is a valid kernel on the 5-D lattice; its codec spans
        # all 5^5 modes, and a 7-D one exhausted memory
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        total = data["total"]
        total["dim"] = 5
        for term in total["terms"]:
            for side in ("u", "ubar"):
                term[side] = [mode + [0] * 4 for mode in term[side]]
        ledger.write_text(json.dumps(data))
        built = []
        codec_for = hamiltonian._codec_for

        def spy(lattice, cutoff):
            built.append(lattice)
            return codec_for(lattice, cutoff)

        monkeypatch.setattr(hamiltonian, "_codec_for", spy)
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and "lattice and cutoff" in err and out == ""
        assert ModeLattice(5, 2) not in built


class TestRender:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "render", "--tree", "(o (o) (n))")
        assert code == 0 and out.strip() == "(o (o) (n))"

    def test_dot(self, capsys):
        code, out, _ = run(
            capsys, "render", "--tree", "(r (o (k) (n)) (n))",
            "--format", "dot",
        )
        assert code == 0 and out.startswith("digraph")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "render", "--tree", "(o (x) (n))")
        assert code == 2 and "position" in err

    def test_deeply_nested_tree(self, capsys):
        code, out, err = run(capsys, "render", "--tree",
                             "(o " * 3000 + "(o)")
        assert code == 2 and err.startswith("error:") and out == ""
        assert "(at position 9003)" in err

    def test_deep_tree(self, capsys):
        tree = "(o " * 3000 + "(o)" + " (n))" * 3000
        code, out, err = run(capsys, "render", "--tree", tree)
        assert (code, out, err) == (0, tree + "\n", "")

    def test_takes_no_config_flags(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--tree", "(o (o) (n))",
                  "--out", str(tmp_path / "f")])
        assert exc.value.code == 2
        assert not (tmp_path / "f").exists()


class TestConfigPrecedence:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 1, "N": 3}))
        out_path = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg),
            "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["config"]["radius"] == 1
        assert data["config"]["threshold"] == 3

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 1}))
        out_path = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg),
            "--K", "2", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["radius"] == 2

    def test_env_var(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 1}))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        out_path = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "f-transform", "--m", "1", "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["radius"] == 1

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg)
        )
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_config_file_not_utf8(self, capsys, tmp_path, monkeypatch,
                                  source):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        argv = ["f-transform", "--m", "1"]
        if source == "flag":
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, *argv)
        assert code == 2 and "cannot read config file" in err and out == ""

    def test_oversized_integer(self, capsys, tmp_path):
        # json.load refuses an integer of more digits than int() reads
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dim": 1' + "0" * 5000 + "}")
        code, out, err = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg)
        )
        assert code == 2 and "cannot read config file" in err and out == ""

    def test_bad_values(self, capsys):
        code, _, _ = run(capsys, "expand", "--m", "1", "--ell", "3",
                         "--K", "0")
        assert code == 2

    def test_unknown_key(self, capsys, tmp_path):
        # the ledger's own names for K and N are not config keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 3, "radius": 1}))
        code, out, err = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg)
        )
        assert code == 2 and "'radius'" in err and out == ""

    @pytest.mark.parametrize("source, message", [
        ("flag", "nested-le"),
        ("config", "unknown config key 'assumption_mode'"),
    ], ids=["flag", "config"])
    def test_nested_ge_is_refused(self, capsys, tmp_path, source, message):
        # the flag's one value is an argparse choice, so a bad one is a
        # usage error: main exits 2 rather than returning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assumption_mode": "nested-ge"}))
        extra = (["--assumption-mode", "nested-ge"] if source == "flag"
                 else ["--config", str(cfg)])
        argv = ["expand", "--m", "2", "--ell", "4", *extra]
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code, (out, err) = exc.value.code, capsys.readouterr()
        else:
            code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == ""

    def test_assumption_mode_is_not_a_config_key(self, capsys, tmp_path):
        # only the flag remains; the one value it takes is refused in a file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assumption_mode": "nested-le"}))
        code, out, err = run(capsys, "expand", "--m", "1", "--ell", "3",
                             "--config", str(cfg))
        assert code == 2 and "'assumption_mode'" in err and out == ""

    @pytest.mark.parametrize("value", [None, "x", 1.9, True])
    def test_non_integer_value(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": value}))
        code, _, err = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg)
        )
        assert code == 2 and "integers" in err
