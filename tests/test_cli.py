"""Command-line interface tests.

Most cases drive ``main(argv)`` in process with captured stdout and
stderr, which keeps the suite fast; one subprocess round trip proves
the module entry point works outside the test harness.  Exit codes
follow the documented contract: 0 on success, 2 for domain errors,
3 when a verification suite reports failures, 4 for config errors.
"""

import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mrquant import SUITE_NAMES, QuantizerSpec, Scheme, quantize
from mrquant.cli import main

# Golden relay inputs are checked at the resolution of the data, not of
# the error: float(2/7) itself is off the rational by more than one ulp
# of the small final error, and the chain arithmetic is exact after that.
ULP_AT_DATA_SCALE = math.ulp(2.0 / 7.0)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestQuantizeCommand:
    def test_bmrq_golden_output(self):
        code, out, err = run_cli(
            ["quantize", "--scheme", "bmrq", "--s", "0.25", "--x", "0.3"]
        )
        assert code == 0
        assert out == "0.375\n"
        assert err == ""

    def test_uniform_accepts_negative_inputs(self):
        code, out, _ = run_cli(
            ["quantize", "--scheme", "uniform", "--s", "0.5", "--x", "-1.3"]
        )
        assert code == 0
        assert out == "-1.25\n"

    def test_output_round_trips_to_the_library_value(self):
        code, out, _ = run_cli(
            [
                "quantize",
                "--scheme",
                "bbmrq",
                "--alpha",
                "0.6",
                "--s",
                "0.3",
                "--x",
                "0.2",
            ]
        )
        assert code == 0
        spec = QuantizerSpec(Scheme.BBMRQ, alpha=0.6)
        expected = quantize(spec, 0.3, 0.2)
        assert float(out) == expected

    def test_trace_path_line_format(self):
        code, out, _ = run_cli(
            [
                "quantize",
                "--scheme",
                "bbmrq",
                "--alpha",
                "0.6",
                "--s",
                "0.3",
                "--x",
                "0.2",
                "--trace-path",
            ]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert re.fullmatch(
            r"path sign=[+-]1 base_level=-?\d+ bits=(-|[01]+)", lines[1]
        )

    def test_trace_path_rejected_for_uniform(self):
        code, out, err = run_cli(
            [
                "quantize",
                "--scheme",
                "uniform",
                "--s",
                "0.5",
                "--x",
                "0.3",
                "--trace-path",
            ]
        )
        assert code == 2
        assert out == ""
        assert "path" in err

    def test_unknown_scheme_is_a_domain_error(self):
        code, out, err = run_cli(
            ["quantize", "--scheme", "median", "--s", "0.5", "--x", "0.3"]
        )
        assert code == 2
        assert out == ""
        assert "bmrq" in err

    def test_unrepresentable_cell_is_a_domain_error(self):
        code, out, err = run_cli(
            ["quantize", "--scheme", "bmrq", "--s", "5e-324", "--x", "1"]
        )
        assert code == 2
        assert out == ""
        assert "representable" in err

    def test_alpha_outside_range_is_a_domain_error(self):
        code, _, err = run_cli(
            ["quantize", "--scheme", "bbmrq", "--alpha", "0.9", "--s", "0.3", "--x", "0.2"]
        )
        assert code == 2
        assert "alpha" in err

    def test_missing_required_argument_exits_2(self):
        code, _, err = run_cli(["quantize", "--scheme", "bmrq", "--s", "0.25"])
        assert code == 2
        assert "usage" in err


class TestCdfCommand:
    def test_single_cell_scheme_has_one_breakpoint(self):
        code, out, _ = run_cli(
            ["cdf", "--scheme", "bmrq", "--s", "0.7", "--x0", "0", "--x1", "100"]
        )
        assert code == 0
        assert out == "gamma,F\n0.5,1\n"

    def test_window_starting_on_a_mirrored_cell_end(self):
        # The mirrored cell (-1, -0.6] meets this window only at x0 = -0.6;
        # its zero-length piece once failed the cdf with exit 2.
        code, out, err = run_cli(
            ["cdf", "--scheme", "bbmrq", "--alpha", "0.6", "--s", "0.5",
             "--x0", "-0.6", "--x1", "1"]
        )
        assert code == 0, err
        header, rows = csv_rows(out)
        assert [float(g) for g, _ in rows] == pytest.approx([0.24, 0.36, 0.4], abs=1e-15)
        assert [float(f) for _, f in rows] == pytest.approx([0.3, 0.75, 1.0], abs=1e-15)

    def test_closed_form_two_atom_law(self):
        code, out, _ = run_cli(["cdf", "--scheme", "dbmrq", "--s", "1.5", "--closed-form"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "gamma,F"
        assert [float(g) for g, _ in rows] == [1.0, 2.0]
        assert float(rows[0][1]) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rows[1][1] == "1"

    def test_closed_form_one_atom_laws(self):
        for scheme, atom in (("uniform", "0.69999999999999996"), ("bmrq", "0.5")):
            code, out, _ = run_cli(["cdf", "--scheme", scheme, "--s", "0.7", "--closed-form"])
            assert code == 0
            assert out == f"gamma,F\n{atom},1\n"

    def test_closed_form_rejects_bad_steps(self):
        # bmrq used to print an atom at 2**floor(log2 s) even for s = -1 or inf
        for scheme in ("uniform", "bmrq", "dbmrq"):
            for s in ("-1", "0", "inf"):
                code, _, err = run_cli(["cdf", "--scheme", scheme, "--s", s, "--closed-form"])
                assert code == 2
                assert "step bound" in err

    def test_closed_form_curve_is_a_cdf(self):
        code, out, _ = run_cli(
            ["cdf", "--scheme", "bbmrq", "--alpha", "0.6", "--s", "0.4", "--closed-form"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "gamma,F"
        gammas = [float(g) for g, _ in rows]
        values = [float(v) for _, v in rows]
        assert gammas == sorted(gammas)
        assert values == sorted(values)
        assert values[0] >= 0.0
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_levy_distance_row_is_appended(self):
        code, out, _ = run_cli(
            [
                "cdf",
                "--scheme",
                "bbmrq",
                "--alpha",
                "0.6",
                "--s",
                "1.0",
                "--x0",
                "0",
                "--x1",
                "1000",
                "--levy-against",
                "bias",
            ]
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        label, value = last.split(",")
        assert label == "levy_distance"
        assert 0.0 <= float(value) < 0.2

    def test_two_atom_empirical_law_matches_its_closed_form(self):
        code, out, _ = run_cli(
            [
                "cdf",
                "--scheme",
                "dbmrq",
                "--s",
                "1.5",
                "--x0",
                "0",
                "--x1",
                "10000",
                "--levy-against",
                "dbmrq",
            ]
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert float(last.split(",")[1]) < 0.01

    def test_levy_with_closed_form_is_rejected(self):
        code, _, err = run_cli(
            [
                "cdf",
                "--scheme",
                "bbmrq",
                "--alpha",
                "0.6",
                "--s",
                "1.0",
                "--closed-form",
                "--levy-against",
                "bias",
            ]
        )
        assert code == 2
        assert err != ""

    def test_bbmrq_without_alpha_is_a_domain_error(self):
        code, _, err = run_cli(["cdf", "--scheme", "bbmrq", "--s", "1.0"])
        assert code == 2
        assert "alpha" in err

    def test_levy_against_bias_needs_an_alpha(self):
        code, out, err = run_cli(
            ["cdf", "--scheme", "bmrq", "--s", "1", "--x1", "10", "--levy-against", "bias"]
        )
        assert code == 2
        assert "--levy-against bias needs --alpha" in err

    def test_bbmrq_closed_form_rejects_bad_steps(self):
        # the closed law is scaled by s, so s = -1 would print negative sizes
        for s in ("-1", "0", "inf", "nan"):
            code, out, err = run_cli(
                ["cdf", "--scheme", "bbmrq", "--alpha", "0.6", "--s", s, "--closed-form"]
            )
            assert (code, out) == (2, "")
            assert "step bound s must be a finite real in (0, inf)" in err


class TestTradeoffCommand:
    def test_header_and_staircase_values(self):
        code, out, _ = run_cli(
            [
                "tradeoff",
                "--schemes",
                "bmrq",
                "--xmin",
                "0",
                "--xmax",
                "2.5",
                "--points",
                "6",
            ]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "scheme,log_rate,error,s"
        errors = [float(r[2]) for r in rows]
        assert errors == [0.25, 0.25, 0.125, 0.125, 0.0625, 0.0625]

    def test_multiple_schemes_stack_their_rows(self):
        code, out, _ = run_cli(
            [
                "tradeoff",
                "--schemes",
                "uniform,bmrq",
                "--xmin",
                "0",
                "--xmax",
                "2",
                "--points",
                "5",
            ]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 10
        assert {r[0] for r in rows} == {"uniform", "bmrq"}
        assert [r[0] for r in rows[:5]] == ["uniform"] * 5

    def test_uniform_rows_follow_the_closed_form(self):
        code, out, _ = run_cli(
            [
                "tradeoff",
                "--schemes",
                "uniform",
                "--p",
                "2",
                "--xmin",
                "1",
                "--xmax",
                "1",
                "--points",
                "1",
            ]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        _, log_rate, error, s = rows[0]
        assert float(log_rate) == 1.0
        assert float(error) == pytest.approx(2.0 ** (-2 * 2) / 3.0, rel=1e-12)
        assert float(s) == pytest.approx(0.5, rel=1e-12)

    def test_unknown_scheme_in_list_is_a_domain_error(self):
        code, _, err = run_cli(["tradeoff", "--schemes", "uniform,quartic"])
        assert code == 2
        assert err != ""

    def test_overflowing_log_rate_is_a_domain_error(self):
        code, _, err = run_cli(
            ["tradeoff", "--schemes", "uniform", "--xmin", "-1100", "--xmax", "-1100", "--points", "1"]
        )
        assert code == 2
        assert "overflows float64" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--schemes", " , "], "--schemes must name at least one scheme"),
            (["--schemes", "bmrq", "--points", "0"], "--points must be an integer in [1, inf), got 0"),
            (["--schemes", "bmrq", "--xmin", "nan"], "--xmin must be a finite real"),
            (["--schemes", "bmrq", "--xmax", "inf"], "--xmax must be a finite real"),
            (["--schemes", "bmrq", "--xmin=-inf"], "--xmin must be a finite real"),
            (["--schemes", "bmrq", "--xmin", "3", "--xmax", "1"], "--xmax must not be below --xmin"),
        ],
        ids=["no-schemes", "no-points", "nan-xmin", "inf-xmax", "-inf-xmin", "inverted"],
    )
    def test_bad_grids_are_domain_errors(self, argv, message):
        code, out, err = run_cli(["tradeoff", *argv])
        assert (code, out) == (2, "")
        assert message in err

    def test_underflowing_log_rate_is_a_domain_error(self):
        code, _, err = run_cli(
            ["tradeoff", "--schemes", "bbmrq", "--xmin", "1100", "--xmax", "1100", "--points", "1"]
        )
        assert code == 2
        assert "underflows float64" in err


class TestRelayCommand:
    @staticmethod
    def write_config(tmp_path, payload, name="chain.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_trace_report_golden(self, tmp_path):
        cfg = self.write_config(tmp_path, {"capacities": [4, 3], "scheme": "uniform"})
        code, out, _ = run_cli(["relay", "--config", cfg, "--x", str(2.0 / 7.0)])
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["command"] == "relay.trace"
        assert report["outputs"] == [0.375, 0.5]
        assert report["steps_used"] == [0.25, 1.0 / 3.0]
        assert abs(report["final_abs_error"] - 3.0 / 14.0) <= ULP_AT_DATA_SCALE

    def test_trace_report_tree_chain(self, tmp_path):
        cfg = self.write_config(tmp_path, {"capacities": [6, 4, 3], "scheme": "bmrq"})
        code, out, _ = run_cli(["relay", "--config", cfg, "--x", str(2.0 / 7.0)])
        assert code == 0
        report = json.loads(out)
        assert abs(report["final_abs_error"] - 1.0 / 28.0) <= ULP_AT_DATA_SCALE

    def test_adversary_report_golden(self, tmp_path):
        cfg = self.write_config(tmp_path, {"capacities": [32], "scheme": "bmrq"})
        code, out, _ = run_cli(["relay", "--config", cfg, "--adversary-budget", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "relay.adversary"
        assert report["worst_capacities"] == [31]
        assert report["ratio"] == 2.0
        assert report["budget"] == 1

    def test_adversary_report_is_deterministic(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"capacities": [6, 5], "scheme": "bbmrq", "alpha": 0.6}
        )
        argv = ["relay", "--config", cfg, "--adversary-budget", "2"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0

    def test_missing_config_file_is_a_config_error(self, tmp_path):
        code, _, err = run_cli(
            ["relay", "--config", str(tmp_path / "nope.json"), "--x", "0.5"]
        )
        assert code == 4
        assert "nope.json" in err

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["relay", "--config", str(path), "--x", "0.5"])
        assert code == 4
        assert "JSON" in err

    def test_unknown_config_keys_are_rejected(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"capacities": [4], "scheme": "uniform", "budget": 3}
        )
        code, _, err = run_cli(["relay", "--config", cfg, "--x", "0.5"])
        assert code == 4
        assert "budget" in err

    def test_missing_capacities_is_a_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path, {"scheme": "uniform"})
        code, _, err = run_cli(["relay", "--config", cfg, "--x", "0.5"])
        assert code == 4
        assert "capacities" in err

    def test_bad_policy_name_is_a_config_error(self, tmp_path):
        # every link capacity is resolved by one rule, so a config may not
        # name one: any policy key, even a former policy name, is unknown
        for policy in ("Greedy", "LevelCountSearch", "StepFromCapacity", None):
            cfg = self.write_config(
                tmp_path,
                {"capacities": [4], "scheme": "uniform", "policy": policy},
            )
            code, _, err = run_cli(["relay", "--config", cfg, "--x", "0.5"])
            assert code == 4
            assert "unknown config keys" in err
            assert "policy" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([4, 3], "relay config must be a JSON object"),
            ({"capacities": [4]}, "missing key 'scheme'"),
            ({"capacities": 4, "scheme": "uniform"}, "capacities must be a list of integers"),
            ({"capacities": [4, 2.5], "scheme": "uniform"}, "capacities must be a list of integers"),
            ({"capacities": [4], "scheme": 3}, "scheme must be a string"),
            ({"capacities": [4], "scheme": "uniform", "domain": [0.0]}, "domain must be [lo, hi]"),
            ({"capacities": [4], "scheme": "uniform", "domain": {"lo": 0}}, "domain must be [lo, hi]"),
            ({"capacities": [4], "scheme": "uniform", "domain": [0, "1"]}, "domain must be [lo, hi]"),
            ({"capacities": [4], "scheme": "bbmrq", "alpha": "0.6"}, "alpha must be a number"),
            # JSON true is no number, though Python's bool is an int
            ({"capacities": [True, 4], "scheme": "uniform"}, "capacities must be a list of integers"),
            ({"capacities": [4], "scheme": "uniform", "domain": [0, True]}, "domain must be [lo, hi]"),
            ({"capacities": [4], "scheme": "bbmrq", "alpha": True}, "alpha must be a number"),
        ],
    )
    def test_config_shape_errors_are_config_errors(self, tmp_path, doc, message):
        cfg = self.write_config(tmp_path, doc)
        code, out, err = run_cli(["relay", "--config", cfg, "--x", "0.5"])
        assert (code, out) == (4, "")
        assert message in err

    def test_domain_wider_than_float64_is_a_domain_error(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"capacities": [4], "scheme": "uniform", "domain": [-1e308, 1e308]}
        )
        code, out, err = run_cli(["relay", "--config", cfg, "--x", "0.5"])
        assert (code, out) == (2, "")
        assert "domain must be an interval x0 < x1 of finite width" in err

    def test_semantic_errors_keep_the_domain_exit_code(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"capacities": [4, 1], "scheme": "uniform"}
        )
        code, _, err = run_cli(["relay", "--config", cfg, "--x", "0.5"])
        assert code == 2
        assert err != ""

    def test_trace_input_outside_domain_is_a_domain_error(self, tmp_path):
        cfg = self.write_config(tmp_path, {"capacities": [4], "scheme": "uniform"})
        code, _, err = run_cli(["relay", "--config", cfg, "--x", "1.5"])
        assert code == 2
        assert err != ""

    def test_neither_mode_selected_is_a_domain_error(self, tmp_path):
        cfg = self.write_config(tmp_path, {"capacities": [4], "scheme": "uniform"})
        code, _, err = run_cli(["relay", "--config", cfg])
        assert code == 2
        assert "--x" in err


class TestVerifyCommand:
    LINE = re.compile(r"(PASS|FAIL) ([a-z0-9_.()/]+) value=(\S+) :: in \[(\S+), (\S+)\]; .+")
    SUMMARY = re.compile(r"\d+ passed, \d+ failed \(seed \d+\)")

    def test_converse_suite_passes(self):
        code, out, _ = run_cli(["verify", "--suite", "converse"])
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert self.SUMMARY.fullmatch(lines[-1])
        assert lines[-1].endswith("0 failed (seed 42)")

    def test_line_format_is_stable(self):
        # every line of every suite carries its value and bound, and reads
        # PASS exactly when the value lies in the bound
        for suite in SUITE_NAMES:
            code, out, _ = run_cli(["verify", "--suite", suite])
            *lines, summary = out.strip().splitlines()
            assert lines, suite
            failed = 0
            for line in lines:
                match = self.LINE.fullmatch(line)
                assert match, line
                status, _, value, lo, hi = match.groups()
                assert (status == "PASS") == (float(lo) <= float(value) <= float(hi)), line
                failed += status == "FAIL"
            assert summary == f"{len(lines) - failed} passed, {failed} failed (seed 42)"
            assert code == (3 if failed else 0)

    def test_known_failures_set_exit_code_3(self):
        code, out, _ = run_cli(["verify", "--suite", "scale"])
        assert code == 3
        failing = [l for l in out.splitlines() if l.startswith("FAIL ")]
        assert len(failing) == 1
        assert "rescaled_cdfs_pairwise" in failing[0]

    def test_all_suites_aggregate(self):
        code, out, _ = run_cli(["verify", "--suite", "all"])
        assert code == 3
        failing = [l for l in out.splitlines() if l.startswith("FAIL ")]
        assert len(failing) == 2
        assert any("rescaled_cdfs_pairwise" in l for l in failing)
        assert any("matches_closed_form" in l for l in failing)

    def test_seed_flag_is_reproducible(self):
        first = run_cli(["verify", "--suite", "renewal", "--seed", "5"])
        second = run_cli(["verify", "--suite", "renewal", "--seed", "5"])
        assert first == second

    def test_env_seed_matches_flag_seed(self, monkeypatch):
        _, flagged, _ = run_cli(["verify", "--suite", "renewal", "--seed", "7"])
        monkeypatch.setenv("MRQ_SEED", "7")
        _, from_env, _ = run_cli(["verify", "--suite", "renewal"])
        assert from_env == flagged

    def test_flag_wins_over_env(self, monkeypatch):
        _, flagged, _ = run_cli(["verify", "--suite", "renewal", "--seed", "7"])
        monkeypatch.setenv("MRQ_SEED", "9")
        _, mixed, _ = run_cli(["verify", "--suite", "renewal", "--seed", "7"])
        assert mixed == flagged

    def test_non_integer_env_seed_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("MRQ_SEED", "seven")
        code, _, err = run_cli(["verify", "--suite", "renewal"])
        assert code == 4
        assert "MRQ_SEED" in err

    def test_negative_seed_is_a_domain_error(self, monkeypatch):
        code, out, err = run_cli(["verify", "--seed", "-1"])
        assert (code, out) == (2, "")
        assert "seed must be an integer in [0, inf), got -1" in err
        monkeypatch.setenv("MRQ_SEED", "-5")
        code, out, err = run_cli(["verify", "--suite", "converse"])
        assert (code, out) == (2, "")
        assert "seed must be an integer in [0, inf), got -5" in err

    def test_unknown_suite_exits_2(self):
        code, _, err = run_cli(["verify", "--suite", "everything"])
        assert code == 2
        assert "suite" in err


class TestModuleEntryPoint:
    def test_subprocess_round_trip(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mrquant.cli",
                "quantize",
                "--scheme",
                "bmrq",
                "--s",
                "0.25",
                "--x",
                "0.3",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0.375\n"
