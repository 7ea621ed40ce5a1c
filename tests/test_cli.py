import json

import pytest

from birkhoff.cli import CONFIG_ENV, main


# the stderr summary of `expand --m 1 --ell 3`
SUMMARY_1_3 = (
    "tree                                          S #monomials\n"
    "(k)                                           1          4\n"
    "(r)                                           1         15\n"
    "(o (o) (n))                                   1        101\n"
    "(o (o (k) (n)) (n))                           2         73\n"
    "total monomials: 120\n"
)


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

    def test_bad_orders(self, capsys):
        code, _, _ = run(capsys, "expand", "--m", "3", "--ell", "3")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["expand", "--m", "2", "--ell", "4"],
    ["f-transform", "--m", "1"],
    ["verify", "--m", "1", "--ell", "3"],
], ids=["expand", "f-transform", "verify"])
def test_cap_bounds_every_enumeration(capsys, argv):
    code, _, err = run(capsys, *argv, "--cap", "1")
    assert code == 2 and "cap" in err


# edits of the total of an `expand --m 1 --ell 3` ledger, each of which
# `verify --ledger` must refuse
def _off_lattice(total):
    total["radius"] = 3


def _raise_cutoff(total):
    total["max_degree"] = 8
    total["terms"].append({"u": [[0]] * 4, "ubar": [[0]] * 4,
                           "re": "0", "im": "1"})


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


def _real_part(total):
    total["terms"][0]["re"] = "1"


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
        (_split_term, "listed twice"),
        (_zero_denominator, "zero denominator"),
        (_fractional_mode, "integers"),
        (_boolean_mode, "integers"),
        (_float_cutoff, "max_degree must be an integer"),
        (_real_part, "real part"),
        (_coefficient_as(2), "im must be a string"),
        (_coefficient_as(2.0), "im must be a string"),
        (_coefficient_as(True), "im must be a string"),
    ], ids=["radius", "max-degree", "split-term", "zero-denominator",
            "fractional-mode", "boolean-mode", "float-max-degree",
            "real-part", "integer-coefficient", "float-coefficient",
            "boolean-coefficient"])
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

    def test_corrupted_ledger(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, _, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(bad)
        )
        assert code == 2 and "error" in err


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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nested_ge_is_refused(self, capsys, tmp_path, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assumption_mode": "nested-ge"}))
        argv = (["--assumption-mode", "nested-ge"] if source == "flag"
                else ["--config", str(cfg)])
        code, out, err = run(capsys, "expand", "--m", "2", "--ell", "4", *argv)
        assert code == 2 and "nested-le" in err and out == ""

    @pytest.mark.parametrize("value", [None, "x", 1.9, True])
    def test_non_integer_value(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": value}))
        code, _, err = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg)
        )
        assert code == 2 and "integers" in err
