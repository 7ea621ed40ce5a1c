import json

import pytest

from birkhoff.cli import CONFIG_ENV, main


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
        ("assumption_mode", ("--assumption-mode", "nested-ge")),
    ])
    def test_ledger_config_mismatch(self, capsys, tmp_path, field, flags):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        code, out, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", *flags,
            "--ledger", str(ledger),
        )
        assert code == 2 and f"has {field} " in err and out == ""

    def test_ledger_total_off_its_lattice(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        run(capsys, "expand", "--m", "1", "--ell", "3", "--out", str(ledger))
        data = json.loads(ledger.read_text())
        data["total"]["radius"] = 3
        ledger.write_text(json.dumps(data))
        code, _, err = run(
            capsys, "verify", "--m", "1", "--ell", "3", "--ledger", str(ledger)
        )
        assert code == 2 and "lattice" in err

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

    def test_bad_values(self, capsys):
        code, _, _ = run(capsys, "expand", "--m", "1", "--ell", "3",
                         "--K", "0")
        assert code == 2

    @pytest.mark.parametrize("value", [None, "x"])
    def test_non_integer_value(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": value}))
        code, _, err = run(
            capsys, "f-transform", "--m", "1", "--config", str(cfg)
        )
        assert code == 2 and "integers" in err
