"""Command-line interface: schemas, exit codes, determinism."""

import json

import pytest

from mockforms.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCoeffs:
    def test_k3_json(self, capsys):
        code, out = run(capsys, "coeffs", "--kind", "k3", "--n-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "k3"
        assert payload["rows"][0] == {"n": 1, "exact": "90"}
        assert [row["exact"] for row in payload["rows"]] == ["90", "462", "1540"]

    def test_ale_single_row(self, capsys):
        code, out = run(capsys, "coeffs", "--kind", "ale", "--n-max", "1")
        assert code == 0
        assert json.loads(out)["rows"] == [{"n": 1, "exact": "6"}]

    def test_noncompact_csv(self, capsys):
        code, out = run(capsys, "--format", "csv", "coeffs", "--kind", "noncompact", "--n-max", "2")
        assert code == 0
        assert out.splitlines() == ["n,exact", "1,-6", "2,14"]

    def test_large_values_as_decimal_strings(self, capsys):
        code, out = run(capsys, "coeffs", "--kind", "k3", "--n-max", "45")
        rows = json.loads(out)["rows"]
        assert rows[44] == {"n": 45, "exact": "1778826191324"}

    def test_entropy_plot_data(self, capsys):
        code, out = run(capsys, "--format", "csv", "coeffs", "--kind", "k3", "--n-max", "2", "--entropy")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact,log_exact,entropy"
        n, exact, log_exact, entropy = lines[1].split(",")
        assert (n, exact) == ("1", "90")
        assert float(log_exact) == pytest.approx(4.49981, abs=1e-4)
        assert float(entropy) == pytest.approx(4.44288, abs=1e-4)

    def test_bad_n_max(self, capsys):
        assert main(["coeffs", "--kind", "k3", "--n-max", "0"]) == 2

    def test_bad_kind_exits_2(self):
        assert main(["coeffs", "--kind", "bogus", "--n-max", "3"]) == 2


class TestRademacher:
    def test_reference_partials(self, capsys):
        code, out = run(capsys, "rademacher", "--kind", "k3", "--n", "2", "--c-max", "5,20")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "462"
        assert payload["leading"] == pytest.approx(453.018, abs=0.005)
        assert payload["partial"]["5"] == pytest.approx(462.026, abs=0.005)
        assert payload["partial"]["20"] == pytest.approx(462.427, abs=0.005)

    def test_noncompact_counts_terms(self, capsys):
        # ten terms of the even-modulus family reach c = 20
        code, out = run(capsys, "rademacher", "--kind", "noncompact", "--n", "20", "--c-max", "10")
        payload = json.loads(out)
        assert payload["partial"]["10"] == pytest.approx(4509.981, abs=0.005)

    def test_single_term_equals_leading(self, capsys):
        code, out = run(capsys, "rademacher", "--kind", "k3", "--n", "1", "--c-max", "1")
        payload = json.loads(out)
        assert payload["partial"]["1"] == payload["leading"]

    def test_per_c_breakdown(self, capsys):
        code, out = run(capsys, "rademacher", "--kind", "k3", "--n", "2", "--c-max", "5", "--per-c")
        payload = json.loads(out)
        assert [entry["c"] for entry in payload["per_c"]] == [1, 2, 3, 4, 5]
        total = sum(entry["term"] for entry in payload["per_c"])
        assert total == pytest.approx(payload["partial"]["5"], abs=1e-9)

    def test_invalid_c_max(self, capsys):
        assert main(["rademacher", "--kind", "k3", "--n", "2", "--c-max", "5,zero"]) == 2

    def test_bessel_overflow_is_a_clean_error(self, capsys):
        assert main(["rademacher", "--n", "26000", "--c-max", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: I_1/2(") and "Traceback" not in captured.err


class TestVerify:
    def test_fast_suites_pass(self, capsys):
        for suite in ("dedekind", "kloosterman", "decomposition"):
            code, out = run(capsys, "verify", "--suite", suite)
            assert code == 0, out
            assert "FAIL" not in out
            assert out.strip().endswith("OK: 0 failed")

    def test_identities_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities")
        assert code == 0, out
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) >= 14

    def test_forced_failure_exit_code(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities", "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL" in out


class TestShadow:
    def test_diagnostic_mode_never_fails(self, capsys):
        code, out = run(capsys, "shadow", "--c-max", "1", "--n-max", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["reference"] == 24
        # heavily truncated: deviation is large but still just reported
        assert abs(payload["rows"][0]["computed"] - 24) > 1

    def test_row_schema(self, capsys):
        code, out = run(capsys, "shadow", "--c-max", "50", "--n-max", "2")
        rows = json.loads(out)["rows"]
        assert [row["exponent"] for row in rows] == [1, 9, 17]
        assert all(set(row) == {"exponent", "computed", "reference"} for row in rows)


class TestPofn:
    def test_match(self, capsys):
        code, out = run(capsys, "pofn", "--n", "10", "--c-max", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["rounded"] == 42 and payload["exact"] == "42" and payload["match"]

    def test_p1_single_term(self, capsys):
        code, out = run(capsys, "pofn", "--n", "1", "--c-max", "1")
        assert json.loads(out)["rounded"] == 1

    def test_calibration_failure_exit_code(self, capsys):
        # a single series term is not enough at n = 30: rounded != exact, exit 1
        code, out = run(capsys, "pofn", "--n", "30", "--c-max", "1")
        payload = json.loads(out)
        if payload["match"]:
            pytest.skip("single-term series unexpectedly rounds to p(30)")
        assert code == 1


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        first = run(capsys, "rademacher", "--kind", "k3", "--n", "5", "--c-max", "5,20", "--per-c")
        second = run(capsys, "rademacher", "--kind", "k3", "--n", "5", "--c-max", "5,20", "--per-c")
        assert first == second

    def test_csv_quoting_and_floats(self, capsys):
        code, out = run(capsys, "--format", "csv", "pofn", "--n", "10", "--c-max", "20")
        header, row = out.splitlines()
        assert header == "n,series,rounded,exact,match"
        assert row.split(",")[1] == "42.0014"  # six significant digits


class TestRemovedOptions:
    def test_cache_dir_is_a_usage_error(self, capsys):
        # the multiplier sums are memoised in the process only; no flag persists them
        assert main(["--cache-dir", "x", "coeffs", "--kind", "k3", "--n-max", "1"]) == 2
        assert main(["--cache-dir=x", "coeffs", "--kind", "k3", "--n-max", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --cache-dir=x" in captured.err
