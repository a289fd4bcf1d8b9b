"""End-to-end command-line behavior: reports, exit codes, determinism."""

import argparse
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from banachkit import cli
from banachkit.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert out, f"no output (stderr: {err})"
    return code, json.loads(out)


LP2 = '{"kind":"lp","p":2}'
EXAMPLE31 = '{"kind":"lp_sum","p":2,"ps":[1,1.5],"ns":[2,17]}'


class TestNormCommand:
    def test_lp(self):
        code, doc = run_json("norm", "--space", LP2, "--vector", "1:1,2:1")
        assert code == 0
        assert doc["result"]["norm"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert doc["config"]["vector"] == "1:1,2:1"

    def test_james_value_from_oracle(self):
        code, doc = run_json("norm", "--space", '{"kind":"james"}', "--vector", "1:1,3:-1")
        assert code == 0
        assert doc["result"]["norm"] == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_lpsum_segment_indicator(self):
        # indicator of segment 1 (an l_1^2 piece): norm = 2 = n_1^(1/p_1)
        code, doc = run_json("norm", "--space", EXAMPLE31, "--vector", "1:1,2:1")
        assert code == 0
        assert doc["result"]["norm"] == pytest.approx(2.0, abs=1e-12)

    def test_space_from_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(LP2, encoding="utf-8")
        code, doc = run_json("norm", "--space", str(path), "--vector", "3:2")
        assert code == 0 and doc["result"]["norm"] == 2.0

    def test_malformed_vector_is_usage_error(self):
        code, out, err = run_cli("norm", "--space", LP2, "--vector", "1:x")
        assert code == 2
        assert "error" in err

    def test_bad_space_is_usage_error(self):
        code, _, err = run_cli("norm", "--space", '{"kind":"nope"}', "--vector", "1:1")
        assert code == 2

    @pytest.mark.parametrize("entry", ["1:nan", "1:inf", "2:-inf"])
    def test_non_finite_vector_is_usage_error(self, entry):
        code, out, err = run_cli("norm", "--space", LP2, "--vector", entry)
        assert code == 2
        assert out == "" and "not finite" in err

    def test_overflowing_norm_is_not_reported(self):
        # both coordinates are finite, their l_1 norm is not
        code, out, err = run_cli("norm", "--space", '{"kind":"lp","p":1}', "--vector", "1:1e308,2:1e308")
        assert code == 2
        assert out == "" and "JSON" in err


class TestVerifyExampleSpace:
    def test_passes_with_exit_zero(self):
        code, doc = run_json("verify-example-space", "--trials", "60", "--seed", "5")
        assert code == 0
        assert doc["result"]["passed"] is True
        assert doc["result"]["ns"][:2] == [2, 65]
        assert all(ok for _, ok in doc["result"]["type_checks"])

    def test_zero_trials_vacuous_with_warning(self):
        code, doc = run_json("verify-example-space", "--trials", "0")
        assert code == 0
        assert "warning" in doc["result"]


class TestSearchCommands:
    def test_hindman_with_certificate(self):
        code, doc = run_json("hindman", "--coloring", "min-parity", "--M", "10", "--L", "3")
        assert code == 0
        assert doc["result"]["witness"] == [[1], [3], [5]]
        assert doc["result"]["certificate_verified"] is True

    def test_ramsey_sum_parity(self):
        code, doc = run_json("ramsey", "--coloring", "sum-parity", "--M", "6", "--k", "2", "--L", "3")
        assert code == 0
        assert doc["result"]["witness"] == [1, 3, 5]

    def test_milliken_first_min_parity(self):
        code, doc = run_json(
            "milliken", "--coloring", "first-min-parity",
            "--P", "singletons:6", "--k", "2", "--L", "3",
        )
        assert code == 0
        assert doc["result"]["found"] is True
        assert doc["result"]["certificate_verified"] is True

    def test_milliken_norm_quant(self):
        code, doc = run_json(
            "milliken", "--coloring", "norm-quant", "--space", LP2,
            "--P", "singletons:5", "--k", "2", "--L", "5",
            "--coeffs", "1,1", "--quantum", "0.05",
        )
        assert code == 0
        assert doc["result"]["witness"] == [[1], [2], [3], [4], [5]]

    @pytest.mark.parametrize("coeffs", ["1", "1,1,1"])
    def test_milliken_coloring_of_another_arity_is_usage_error(self, coeffs):
        code, out, err = run_cli(
            "milliken", "--coloring", "norm-quant", "--space", LP2,
            "--coeffs", coeffs, "--k", "2", "--P", "1|2|3|4", "--L", "3",
        )
        assert code == 2
        assert out == ""
        assert "arity" in err

    def test_found_false_is_ordinary(self):
        code, doc = run_json("ramsey", "--coloring", "sum-parity", "--M", "4", "--k", "2", "--L", "4")
        assert code == 0
        assert doc["result"]["found"] is False
        assert doc["result"]["nodes_explored"] > 0


class TestAnalysisCommands:
    def test_goodness_demo_oscillating(self):
        code, doc = run_json("goodness", "--demo", "interleave-oscillation")
        assert code == 0
        assert doc["result"]["verdict"] == "oscillating"
        assert doc["result"]["max_oscillation"] >= 2 - math.sqrt(2) - 1e-9

    def test_goodness_requires_input(self):
        code, _, err = run_cli("goodness", "--space", LP2)
        assert code == 2

    def test_goodness_with_empty_net_is_usage_error(self):
        # not a vacuous good-within-tolerance verdict with exit 0
        code, out, err = run_cli(
            "goodness", "--space", LP2, "--blocking", "1|2|3|4", "--max-n", "0",
        )
        assert code == 2
        assert out == "" and "max_len" in err

    def test_goodness_blocking(self):
        code, doc = run_json(
            "goodness", "--space", LP2, "--blocking", "|".join(str(i) for i in range(1, 15)),
            "--net-step", "0.5", "--max-n", "2", "--epsilon", "1e-9",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "good-within-tolerance"

    def test_spreading(self):
        code, doc = run_json(
            "spreading", "--space", LP2,
            "--blocking", "|".join(str(i) for i in range(1, 15)),
            "--horizons", "1,4", "--net-step", "1", "--max-n", "2",
        )
        assert code == 0
        assert doc["result"]["horizons"] == [1, 4]

    def test_equivalence(self):
        code, doc = run_json(
            "equivalence", "--space", '{"kind":"lp","p":1}',
            "--blocking", "1|2", "--ref-p", "2", "--ref-n", "2",
        )
        assert code == 0
        assert doc["result"]["constant"] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_game(self):
        code, doc = run_json(
            "game", "--space", LP2, "--subspace", "tail:1", "--vector-player", "unit", "--rounds", "3",
        )
        assert code == 0
        assert len(doc["result"]["moves"]) == 3

    def test_stabilized_lp(self):
        code, doc = run_json(
            "stabilized", "--space", LP2, "--n", "2", "--schedule", "1,10",
            "--window", "8", "--samples", "10",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "consistent-with-stabilized-1-asymptotic-lp"

    def test_stabilize_nccb_with_verify(self):
        code, doc = run_json(
            "stabilize-nccb", "--space", LP2, "--M", "5",
            "--net-step", "0.5", "--max-n", "2", "--verify",
        )
        assert code == 0
        assert doc["result"]["blocking"] == [[1], [2], [3], [4], [5]]
        assert doc["result"]["verified_monochromatic"] is True

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["stabilize-nccb", "--space", LP2, "--M", "4", "--quantum", "nan"], "quantum"),
            (["stabilize-nccb", "--space", LP2, "--M", "4", "--quantum", "inf"], "quantum"),
            (["stabilize-nccb", "--space", LP2, "--M", "4", "--epsilon", "nan"], "epsilon"),
            (["goodness", "--demo", "interleave-oscillation", "--epsilon", "inf"], "epsilon"),
            (["goodness", "--demo", "interleave-oscillation", "--epsilon", "-1"], "epsilon"),
        ],
    )
    def test_non_finite_or_negative_tolerance_is_usage_error(self, argv, name):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err

    def test_krivine(self):
        code, doc = run_json("krivine-p", "--space", '{"kind":"lp","p":3}')
        assert code == 0
        assert doc["result"]["p_estimate"] == pytest.approx(3.0, abs=0.01)
        code, doc = run_json("krivine-p", "--space", '{"kind":"c0"}')
        assert doc["result"]["p_estimate"] == "inf"

    def test_extract(self):
        code, doc = run_json(
            "extract", "--space", LP2,
            "--blocking", "|".join(str(i) for i in range(1, 17)),
            "--net-step", "0.5", "--max-n", "2", "--target-len", "8",
        )
        assert code == 0
        assert doc["result"]["indices"] == list(range(1, 9))
        assert doc["result"]["certified"] is True


class TestOutputContracts:
    def test_reports_embed_config_and_version(self):
        _, doc = run_json("norm", "--space", LP2, "--vector", "1:1")
        assert doc["tool"] == "banachkit"
        assert doc["version"]
        assert doc["command"] == "norm"
        assert "config" in doc and "seed" in doc["config"]

    def test_byte_identical_reports(self):
        argv = (
            "stabilized", "--space", LP2, "--n", "2", "--schedule", "1,6",
            "--window", "8", "--samples", "12", "--seed", "9",
        )
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second

    def test_csv_format(self):
        code, out, _ = run_cli(
            "goodness", "--space", LP2, "--blocking", "1|2|3|4|5|6|7|8",
            "--net-step", "1", "--max-n", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# banachkit")
        assert lines[1].startswith("# config:")
        assert lines[2].split(",")[:3] == ["coeffs", "K", "H"]
        assert len(lines) > 3

    def test_json_reports_refuse_nan(self):
        args = argparse.Namespace(format="json")
        with pytest.raises(ValueError):
            cli._emit(args, "norm", {}, {"norm": math.nan})

    def test_unknown_command_exits_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2
