"""Command-line interface: schemas, exit codes, determinism."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

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

    # sha256 of stdout, recorded with the Fraction q-series tables that the
    # integer long division replaced
    @pytest.mark.parametrize("argv, digest", [
        (("--format", "json", "coeffs", "--kind", "k3", "--n-max", "300"),
         "bfb2a3f2c51c9d2afe0948d3f8491591db641a0cc227da9785d82e108265633d"),
        (("--format", "csv", "coeffs", "--kind", "noncompact", "--n-max", "300"),
         "7adec03d5d59fb04900779f571cef69ba7b160fcb0e87b981b621670b0078b24"),
        (("--format", "json", "coeffs", "--kind", "ale", "--n-max", "210", "--entropy"),
         "05d6fa0344178e40ed88d4e6b5dd98d9965e8816b7a584031c6e3ae6c39a2309"),
    ])
    def test_large_tables_byte_identical(self, capsys, argv, digest):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of stdout, recorded with the ALE table taken as the difference
    # of the whole k3 and noncompact tables and with the flags copied into a
    # separate configuration object before dispatch
    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--suite", "all"),
         "7fce635857841ff279c1ec90399ec6fe33dba240d14d2582f3485401fd3bb091"),
        (("coeffs", "--kind", "ale", "--n-max", "1000"),
         "aaab8df12bb26d7e76ef7ae9bf7c6ba731671f056cd5dc1f0c09f19cd1349483"),
        (("--format", "csv", "coeffs", "--kind", "ale", "--n-max", "1000", "--entropy"),
         "b53417c51f4050e563d4f7b05b37ff921ec463a8c92a9b82cc9f28222396809b"),
    ])
    def test_ale_tables_and_suites_byte_identical(self, capsys, argv, digest):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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


@pytest.mark.parametrize("argv", [
    ("coeffs", "--kind", "k3", "--n-max", "0"),
    ("rademacher", "--n", "0"),
    ("rademacher", "--n", "2", "--c-max", "0"),
    ("rademacher", "--n", "2", "--c-max", "5,zero"),
    ("shadow", "--n-max", "-1"),
    ("pofn", "--n", "0"),
    ("verify", "--tolerance", "nan"),
    ("verify", "--tolerance", "inf"),
    ("verify", "--tolerance", "-1"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err and "Traceback" not in captured.err


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

    def test_tolerance_on_fixed_bound_suites_is_a_usage_error(self, capsys):
        # these suites have fixed bounds, so a tolerance would be ignored
        for suite in ("dedekind", "shadow-light", "decomposition"):
            assert main(["verify", "--suite", suite, "--tolerance", "1e-30"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --tolerance does not apply to the {suite} suite\n"

    def test_format_is_a_usage_error(self, capsys):
        # verify prints text lines, so a format would be ignored
        for fmt in ("json", "csv"):
            assert main(["--format", fmt, "verify", "--suite", "dedekind"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --format does not apply to verify\n"


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

    def test_c_max_list_is_a_usage_error(self, capsys):
        # one modulus count per run; a second value would be ignored
        assert main(["shadow", "--c-max", "5,800"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: shadow takes a single --c-max value\n"


class TestPofn:
    def test_match(self, capsys):
        code, out = run(capsys, "pofn", "--n", "10", "--c-max", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["rounded"] == 42 and payload["exact"] == "42" and payload["match"]

    def test_exact_reference_at_n1000(self, capsys):
        # 20 double-precision terms cannot round p(1000), but the exact
        # reference is printed in full
        code, out = run(capsys, "pofn", "--n", "1000")
        assert json.loads(out)["exact"] == "24061467864032622473692149727991"

    def test_p1_single_term(self, capsys):
        code, out = run(capsys, "pofn", "--n", "1", "--c-max", "1")
        assert json.loads(out)["rounded"] == 1

    def test_c_max_list_is_a_usage_error(self, capsys):
        assert main(["pofn", "--n", "10", "--c-max", "5,20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: pofn takes a single --c-max value\n"

    def test_calibration_failure_exit_code(self, capsys):
        # a single series term is not enough at n = 30: rounded != exact, exit 1
        code, out = run(capsys, "pofn", "--n", "30", "--c-max", "1")
        payload = json.loads(out)
        if payload["match"]:
            pytest.skip("single-term series unexpectedly rounds to p(30)")
        assert code == 1


class TestSeriesStdoutPinned:
    # sha256 of stdout, recorded with the trial division of 8c and
    # Tonelli-Shanks for every prime that the closed-form roots replaced;
    # every series value is a sum of multiplier sums, so any changed bit shows
    @pytest.mark.parametrize("argv, digest", [
        (("rademacher", "--kind", "k3", "--n", "11", "--c-max", "5,20,1200", "--per-c"),
         "a4f18876d05df55ceb05899f905dc34d07656cac37ffdec5281be32f9299e789"),
        (("--format", "csv", "rademacher", "--kind", "noncompact", "--n", "30", "--c-max", "400", "--per-c"),
         "01a560085c7d5ea68120aa5c2062a6b89134d632fb24bcb8924c5834043c25c2"),
        (("shadow",),
         "3697d38151ccb6c306fb69d572dfe0438e0f6cf7cf048c7f8ce0751e52c15a24"),
        (("--format", "csv", "shadow", "--c-max", "300", "--n-max", "20"),
         "cd853022fa4304651915a8966f14f5f45aa9b712be01bc6a6605ea6d28544592"),
        (("pofn", "--n", "200"),
         "8e26905dbe0a1d31434d4568f4ebf42299234c3b47ce14c43428ec93ea066a2c"),
    ])
    def test_series_byte_identical(self, capsys, argv, digest):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        # nothing is persisted between runs; no flag persists the multiplier sums
        assert main(["--cache-dir", "x", "coeffs", "--kind", "k3", "--n-max", "1"]) == 2
        assert main(["--cache-dir=x", "coeffs", "--kind", "k3", "--n-max", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --cache-dir=x" in captured.err


ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list[str]:
    """The `mockforms ...` lines of the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mockforms ")]


def _readme_library_example() -> str:
    """The python block under the README's library example heading."""
    text = (ROOT / "README.md").read_text()
    return text.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_example_states_its_values():
    scope: dict = {}
    exec(_readme_library_example(), scope)
    assert [scope["table"].values[n] for n in range(1, 11)] == [
        90, 462, 1540, 4554, 11592, 27830, 61686, 131100, 265650, 521136]
    assert str(scope["partial"].cumulative).startswith("11592.421")
    assert round(scope["shadow"].value, 4) == -72.0946


class TestReadmeCommands:
    def test_block_covers_every_subcommand(self):
        words = {word for line in _readme_commands() for word in shlex.split(line)}
        assert {"coeffs", "rademacher", "verify", "shadow", "pofn"} <= words

    @pytest.mark.parametrize("line", _readme_commands())
    def test_runs_as_a_subprocess(self, line):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        argv = [sys.executable, "-m", "mockforms", *shlex.split(line)[1:]]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stdout.strip()
        assert done.stderr == ""
