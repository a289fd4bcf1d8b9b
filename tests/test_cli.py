"""End-to-end command-line behavior: reports, exit codes, determinism."""

import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from banachkit import analysis, cli, games
from banachkit.analysis import GoodnessReport, SpreadingEstimate, krivine_p_estimate
from banachkit.games import AsymptoticVerdict
from banachkit.cli import main
from banachkit.spaces import Lp


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

    @pytest.mark.parametrize(
        "space, message",
        [
            ('{"kind":"lp"}', "lp space document has no 'p'"),
            ('{"kind":"lp_sum","p":2,"ps":[1]}', "lp_sum space document has no 'ns'"),
            ('{"kind":"interleave","a":{"kind":"c0"}}', "interleave space document has no 'b'"),
            ('{"kind":"interleave","a":{"kind":"lp"},"b":{"kind":"c0"}}', "lp space document has no 'p'"),
            (
                '{"kind":"interleave","a":{"kind":"lp","p":2},"b":3}',
                "interleave space document field 'b': space document 3 has no 'kind'",
            ),
            (
                '{"kind":"interleave","a":{"p":1},"b":{"kind":"c0"}}',
                "interleave space document field 'a': space document {'p': 1} has no 'kind'",
            ),
            # inline JSON that is not an object is read as JSON, not as a file path
            ("[1,2]", "space document [1, 2] has no 'kind'"),
            (" [1, 2]", "space document [1, 2] has no 'kind'"),
        ],
    )
    def test_space_without_a_field_names_kind_and_field(self, space, message):
        code, out, err = run_cli("norm", "--space", space, "--vector", "1:1")
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "space, message",
        [
            ('{"kind":"lp","p":2,"extra":1}', "lp space document has an unknown field 'extra'"),
            (
                '{"kind":"interleave","a":{"kind":"lp","p":2},"b":{"kind":"james","p":2}}',
                "james space document has an unknown field 'p'",
            ),
        ],
    )
    def test_space_with_an_unknown_field_names_kind_and_field(self, space, message):
        code, out, err = run_cli("norm", "--space", space, "--vector", "1:1")
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_nan_inner_exponent_is_usage_error(self):
        space = '{"kind":"lp_sum","p":2,"ps":[NaN],"ns":[3]}'
        code, out, err = run_cli("norm", "--space", space, "--vector", "1:1")
        assert (code, out, err) == (2, "", "config error: inner exponents must lie in [1, p]\n")

    @pytest.mark.parametrize(
        "space, message",
        [
            (
                '{"kind":"lp_sum","p":2,"ps":3,"ns":[2]}',
                "lp_sum space document has a field of the wrong type: 'int' object is not iterable",
            ),
            ('{"kind":"lp_sum","p":2,"ps":[1],"ns":[2.5]}', "segment dimensions must be integers, got [2.5]"),
            # past the float range, NaN and a bool are refused before any conversion
            ('{"kind":"lp_sum","p":2,"ps":[1],"ns":[1e400]}', "segment dimensions must be integers, got [inf]\n"),
            ('{"kind":"lp_sum","p":2,"ps":[1],"ns":[NaN]}', "segment dimensions must be integers, got [nan]\n"),
            ('{"kind":"lp_sum","p":2,"ps":[1],"ns":[true]}', "segment dimensions must be integers, got [True]\n"),
            # nor is a bool read as the exponent 1 or 0
            ('{"kind":"lp","p":true}', "exponent True is not a number\n"),
            ('{"kind":"lp_sum","p":2,"ps":[true],"ns":[2]}', "exponent True is not a number\n"),
            ('{"kind":"lp","p":[2]}', "lp space document has a field of the wrong type: float() argument"),
            (
                '{"kind":"interleave","a":{"kind":"c0"},"b":{"kind":"lp_sum","p":2,"ps":[1],"ns":3}}',
                "lp_sum space document has a field of the wrong type",
            ),
        ],
    )
    def test_space_field_of_the_wrong_type_names_kind(self, space, message):
        code, out, err = run_cli("norm", "--space", space, "--vector", "1:1")
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {message}")

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


LP1 = '{"kind":"lp","p":1}'
FINITE_ONLY = "; a JSON or CSV report holds only finite numbers\n"


class TestFaultsAreNamed:
    """Reports that would hold an infinite or NaN number, and JSON inputs
    that are not of the form their option takes, exit 2 naming the fault."""

    @pytest.mark.parametrize(
        "argv, json_where, csv_where",
        [
            (["norm", "--space", LP1, "--vector", "1:1e308,2:1e308"], "field result.norm", "field result.norm"),
            (
                [
                    "spreading", "--space", LP1, "--vectors", "HUGE", "--horizons", "1", "--window", "1",
                    "--max-n", "2", "--net-step", "1",
                ],
                "field result.records[0].estimate", "column estimate in row 1",
            ),
            (
                ["goodness", "--space", LP1, "--vectors", "HUGE", "--horizon", "1,2", "--max-n", "1", "--net-step", "1"],
                "field result.records[0].estimate", "column estimate in row 1",
            ),
            (
                ["equivalence", "--space", LP1, "--vectors", "HUGE", "--ref-n", "2"],
                "field result.constant", "field result.constant",
            ),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_is_refused(self, tmp_path, argv, json_where, csv_where, fmt):
        # three coefficients of 1e308: each finite, their l_1 sums not
        path = tmp_path / "vectors.json"
        path.write_text("[[[1,1e308]],[[2,1e308]],[[3,1e308]]]")
        code, out, err = run_cli(*[str(path) if a == "HUGE" else a for a in argv], "--format", fmt)
        where = json_where if fmt == "json" else csv_where
        assert (code, out, err) == (2, "", f"config error: report {where} is inf{FINITE_ONLY}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_option_is_refused(self, fmt):
        # --quantum is unused by this coloring, so only the report sees it
        argv = ["milliken", "--coloring", "first-min-parity", "--P", "singletons:5", "--k", "2", "--L", "2"]
        code, out, err = run_cli(*argv, "--quantum", "nan", "--format", fmt)
        assert (code, out, err) == (2, "", f"config error: report field config.quantum is nan{FINITE_ONLY}")

    @pytest.mark.parametrize(
        "text, fault",
        [
            ('{"a":1}', "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ("5", "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ('[[[1,1]],[[2,"x"]]]', "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ("[[[1,1]],[[2,1,3]]]", "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ("[[[1.5,1]],[[2.9,1]]]", "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ('[["12"]]', "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ("[[[true,false],[3,true]]]", "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ('[[[1,1]],[["2","1"]]]', "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            ("[[[1,1]],[[2,true]]]", "does not hold a list of vectors, each a list of [index, coefficient] pairs"),
            (
                "[[[1,1]],",
                "is not valid JSON (Expecting value: line 1 column 10 (char 9)); it takes a list of vectors, "
                "each a list of [index, coefficient] pairs",
            ),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_vectors_not_of_their_form_are_refused(self, tmp_path, text, fault, fmt):
        path = tmp_path / "vectors.json"
        path.write_text(text)
        code, out, err = run_cli("equivalence", "--space", LP2, "--vectors", str(path), "--format", fmt)
        assert (code, out, err) == (2, "", f"config error: --vectors file {str(path)!r} {fault}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_space_file_that_is_not_json_is_refused(self, tmp_path, fmt):
        path = tmp_path / "space.json"
        path.write_text('{"kind": "lp", "p": 2')
        code, out, err = run_cli("norm", "--space", str(path), "--vector", "1:1", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            f"config error: --space file {str(path)!r} is not valid JSON (Expecting ',' delimiter: "
            "line 1 column 22 (char 21)); it takes a space document such as "
            '{"kind": "lp", "p": 2}, inline or in a file\n'
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[[0,1]]]", "index 0 is not a positive integer"),
            ("[[[1,1e400]]]", "coefficient inf is not finite"),
            # 400 digits: a JSON integer too large for a float
            ("[[[1,1]],[[3," + "1" * 400 + "]]]", "coefficient at index 3 is past the float range"),
        ],
    )
    def test_vector_faults_named_already_keep_their_text(self, tmp_path, fmt, text, message):
        path = tmp_path / "vectors.json"
        path.write_text(text)
        code, out, err = run_cli("equivalence", "--space", LP2, "--vectors", str(path), "--format", fmt)
        assert (code, out, err) == (2, "", f"config error: {message}\n")


class TestVerifyExampleSpace:
    def test_passes_with_exit_zero(self):
        code, doc = run_json("verify-example-space", "--trials", "60", "--seed", "5")
        assert code == 0
        assert doc["result"]["passed"] is True
        assert doc["result"]["ns"][:2] == [2, 65]
        assert all(ok for _, ok in doc["result"]["type_checks"])

    # 1,1.999 gives segment 2 a dimension of 1 204 digits
    @pytest.mark.parametrize("ps", ["1,1.5,1.8,1.9", "1,1.5,1.8,1.9,1.95", "1,1.999"])
    def test_every_segment_defeats_type_p_exactly(self, ps):
        code, doc = run_json("verify-example-space", "--ps", ps, "--trials", "20")
        assert code == 0
        assert doc["result"]["type_checks"] == [[s, True] for s in range(1, ps.count(",") + 2)]

    def test_zero_trials_vacuous_with_warning(self):
        code, doc = run_json("verify-example-space", "--trials", "0")
        assert code == 0
        assert "warning" in doc["result"]

    def test_negative_trials_is_usage_error(self):
        code, out, err = run_cli("verify-example-space", "--trials", "-5")
        assert code == 2
        assert out == "" and "trials must be >= 0" in err

    def test_space_too_short_for_the_tuples_is_usage_error(self):
        code, out, err = run_cli("verify-example-space", "--ps", "1")
        assert code == 2
        assert out == "" and "total dimension 2" in err

    def test_nan_inner_exponent_is_usage_error(self):
        code, out, err = run_cli("verify-example-space", "--ps", "nan")
        assert (code, out, err) == (2, "", "config error: inner exponents must lie in [1, p)\n")

    @pytest.mark.parametrize(
        "ps, too_large",
        [
            ("1,1.9985", "2^(7994/3), is past the float range"),
            ("1,1.999999", "2^(3999998), has more than 4300 digits"),
            # n_2 would be 2**399999999998 + 1, about 50 GB
            ("1,1.99999999999", "2^(399999999998), has more than 4300 digits"),
        ],
    )
    def test_segment_dimension_too_large_to_compute_is_usage_error(self, monkeypatch, ps, too_large):
        def never(*args, **kwargs):
            raise AssertionError("drew block tuples in a space that cannot be built")

        monkeypatch.setattr(analysis, "_block_tuple_frames", never)
        code, out, err = run_cli("verify-example-space", "--ps", ps)
        inner = ps.split(",")[1]
        message = f"segment 2 with inner exponent {inner}: n_2, the least integer above {too_large}"
        assert (code, out, err) == (2, "", f"config error: {message}\n")


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

    def test_milliken_past_a_short_lp_sum_is_usage_error(self, monkeypatch):
        monkeypatch.setattr(cli, "milliken_taylor_search", lambda *args: pytest.fail("searched"))
        code, out, err = run_cli(
            "milliken", "--coloring", "norm-quant", "--space", '{"kind":"lp_sum","p":2,"ps":[1],"ns":[3]}',
            "--coeffs", "1,1", "--quantum", "0.1", "--P", "singletons:6", "--k", "2", "--L", "3",
        )
        assert (code, out, err) == (2, "", "config error: index 5 outside the declared segments (1..3)\n")

    def test_milliken_norm_quant_on_a_far_ground_set_is_fast(self):
        start = time.perf_counter()
        code, doc = run_json(
            "milliken", "--coloring", "norm-quant", "--space", LP2,
            "--coeffs", "1", "--P", "1|100000000", "--k", "1", "--L", "2",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["result"]["witness"] == [[1], [100000000]]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["milliken", "--coeffs", "1,1", "--quantum", "1e-320"],
                "quantum 1e-320 and coefficients [1.0, 1.0] give no finite count of colors",
            ),
            (
                ["milliken", "--coeffs", "1e308,1e308", "--quantum", "0.1"],
                "quantum 0.1 and coefficients [1e+308, 1e+308] give no finite count of colors",
            ),
            (
                ["stabilize-nccb", "--M", "5", "--quantum", "1e-320"],
                "quantum 1e-320 and coefficients [-1.0] give no finite count of colors",
            ),
        ],
    )
    def test_an_infinite_count_of_colors_is_usage_error(self, argv, message):
        if argv[0] == "milliken":
            argv += ["--coloring", "norm-quant", "--P", "singletons:4", "--k", "2", "--L", "3"]
        code, out, err = run_cli(*argv, "--space", LP2)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_extract_past_the_float_range_of_its_tolerances_is_usage_error(self):
        # eps_m = 2^-m: at m = 1023 the cell count sum |a_i| / eps_m overflows
        code, out, err = run_cli(
            "extract", "--space", LP2, "--blocking", "1|2|3|4|5|6",
            "--target-len", "4", "--max-n", "4", "--net-step", "0.25",
        )
        assert (code, out) == (2, "")
        assert err == (
            "config error: extraction step m=1023 with eps=1.1125369292536007e-308 and "
            "coefficients [-1.0, -0.5, 0.0, 1.0] gives no finite count of colors\n"
        )

    def test_partial_coloring_table_error_is_not_quoted(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1|2 0\n1|3 0\n", encoding="utf-8")
        code, out, err = run_cli(
            "milliken", "--coloring", f"table:{path}", "--P", "singletons:4", "--k", "2", "--L", "3"
        )
        assert (code, out, err) == (2, "", "config error: coloring table has no entry for blocking 1|2,3\n")

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
        argv = (
            "spreading", "--space", LP2,
            "--blocking", "|".join(str(i) for i in range(1, 15)),
            "--horizons", "1,4", "--net-step", "1", "--max-n", "2",
        )
        code, doc = run_json(*argv)
        assert code == 0
        assert doc["result"]["horizons"] == [1, 4]
        assert doc["config"]["fit-p"] is False
        _, fitted = run_json(*argv, "--fit-p")
        assert fitted["config"]["fit-p"] is True
        assert fitted["result"]["fit_p"] == pytest.approx(2.0, abs=1e-9)

    def test_equivalence(self):
        code, doc = run_json(
            "equivalence", "--space", '{"kind":"lp","p":1}',
            "--blocking", "1|2", "--ref-p", "2", "--ref-n", "2",
        )
        assert code == 0
        assert doc["result"]["constant"] == pytest.approx(math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize(
        "vectors, coeffs",
        [
            ([[[1, 1]], [[1, 1]]], "(-1.0, 1.0)"),  # two equal vectors cancel
            ([[[1, 1]], []], "(0.0, -1.0)"),  # a zero vector
        ],
    )
    def test_equivalence_refuses_a_combination_of_norm_zero(self, tmp_path, vectors, coeffs):
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps(vectors))
        code, out, err = run_cli("equivalence", "--space", LP2, "--vectors", str(path))
        assert code == 2 and out == ""
        assert err == f"config error: the combination with coefficients {coeffs} has norm 0: no lower bound exists\n"

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

    @pytest.mark.parametrize("extra", [[], ["--quantum", "0.3"], ["--max-n", "3", "--quantum", "0.5"]])
    def test_stabilize_past_a_short_lp_sum_names_the_probed_index(self, extra):
        # the coloring probes the largest odd and even indices of {1..M} when built
        space = '{"kind":"lp_sum","p":2,"ps":[1,1.5,1.8],"ns":[2,3,4]}'
        code, out, err = run_cli(
            "stabilize-nccb", "--space", space, "--M", "12", "--net-step", "0.5", "--verify", *extra
        )
        assert code == 2
        assert out == ""
        assert err == "config error: index 11 outside the declared segments (1..9)\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["stabilize-nccb", "--space", LP2, "--M", "4", "--quantum", "nan"], "quantum"),
            (["stabilize-nccb", "--space", LP2, "--M", "4", "--quantum", "inf"], "quantum"),
            (["stabilize-nccb", "--space", LP2, "--M", "4", "--epsilon", "nan"], "epsilon"),
            (["goodness", "--demo", "interleave-oscillation", "--epsilon", "inf"], "epsilon"),
            (["goodness", "--demo", "interleave-oscillation", "--epsilon", "-1"], "epsilon"),
            (["stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--epsilon", "-1"], "epsilon"),
            (["stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--epsilon", "nan"], "epsilon"),
        ],
    )
    def test_non_finite_or_negative_tolerance_is_usage_error(self, argv, name):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["goodness", "--demo", "interleave-oscillation"],
            ["goodness", "--space", LP2, "--blocking", "1|2|3"],
            ["spreading", "--space", LP2, "--blocking", "1|2|3", "--horizons", "1"],
            ["equivalence", "--space", LP2, "--blocking", "1|2|3"],
            ["stabilize-nccb", "--space", LP2, "--M", "4"],
            ["extract", "--space", LP2, "--blocking", "1|2|3"],
        ],
    )
    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-0.5", "x"])
    def test_bad_net_step_is_usage_error(self, argv, step):
        code, out, err = run_cli(*argv, "--net-step", step)
        assert code == 2
        assert out == ""
        assert "--net-step: must be a finite number > 0" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["equivalence", "--space", LP2, "--blocking", "1|2|3", "--ref-n", "0"], "--ref-n: must be an integer >= 1"),
            (["equivalence", "--space", LP2, "--blocking", "1|2|3", "--ref-n", "-1"], "--ref-n: must be an integer >= 1"),
            (["equivalence", "--space", LP2, "--blocking", "1|2|3", "--ref-n", "x"], "--ref-n: must be an integer >= 1"),
            (
                ["stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--samples", "-3"],
                "--samples: must be an integer >= 0",
            ),
            (
                ["stabilized", "--space", LP2, "--n", "0", "--schedule", "1,3", "--samples", "2"],
                "--n: must be an integer >= 1",
            ),
            (
                ["stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--window", "-1", "--samples", "2"],
                "--window: must be an integer >= 0",
            ),
            (["game", "--space", LP2, "--rounds", "-2"], "--rounds: must be an integer >= 0"),
            (["game", "--space", LP2, "--vector-player", "nccb:0"], "nccb width must be >= 1, got 0"),
            (["game", "--space", LP2, "--vector-player", "nccb:-2"], "nccb width must be >= 1, got -2"),
            (["game", "--space", LP2, "--vector-player", "net:0"], "net window 0 is shorter than every tuple"),
            (["game", "--space", LP2, "--vector-player", "net:-1:0"], "net window -1 is shorter than every tuple"),
            (
                ["spreading", "--space", LP2, "--blocking", "1|2|3|4", "--horizons", "1", "--window", "-2"],
                "--window: must be an integer >= 0",
            ),
            (["goodness", "--space", LP2, "--blocking", "1|2|3|4", "--horizon", "0,2"], "horizon needs K >= 1 and H >= 0"),
            (["goodness", "--space", LP2, "--blocking", "1|2|3|4", "--horizon", "1,-1"], "horizon needs K >= 1 and H >= 0"),
            (
                ["milliken", "--coloring", "constant", "--P", "singletons:0", "--k", "1", "--L", "1"],
                "--P must have at least one block",
            ),
            (
                ["milliken", "--coloring", "constant", "--P", "singletons:-3", "--k", "1", "--L", "1"],
                "--P must have at least one block",
            ),
            (["extract", "--space", LP2, "--blocking", "1|2|3|4", "--target-len", "0"], "--target-len: must be an integer >= 1"),
            (["extract", "--space", LP2, "--blocking", "1|2|3|4", "--target-len", "-1"], "--target-len: must be an integer >= 1"),
            (["krivine-p", "--space", LP2, "--start", "0"], "--start: must be an integer >= 1"),
            (["krivine-p", "--space", LP2, "--start", "-5"], "--start: must be an integer >= 1"),
            (["game", "--space", LP2, "--subspace", "tail:-3", "--rounds", "3"], "tail lead must be >= 0, got -3"),
            (["game", "--space", LP2, "--subspace", "constant:0"], "constant cutoff m must be >= 1, got 0"),
            (
                ["game", "--space", LP2, "--subspace", "constant:x"],
                "subspace-player strategy 'constant:x': parameter 'x' is not an integer",
            ),
            (
                ["game", "--space", LP2, "--subspace", "tail:1.5"],
                "subspace-player strategy 'tail:1.5': parameter '1.5' is not an integer",
            ),
            (
                ["game", "--space", LP2, "--vector-player", "net:a"],
                "vector-player strategy 'net:a': parameter 'a' is not an integer",
            ),
            (
                ["game", "--space", LP2, "--vector-player", "nccb:two"],
                "vector-player strategy 'nccb:two': parameter 'two' is not an integer",
            ),
            (
                ["game", "--space", LP2, "--vector-player", "unit:7"],
                "vector-player strategy 'unit:7' takes no parameter",
            ),
            (
                ["game", "--space", LP2, "--vector-player", "net:1:2:3"],
                "vector-player strategy 'net:1:2:3' takes at most two parameters",
            ),
            (
                ["game", "--space", LP2, "--vector-player", "net::3"],
                "config error: vector-player strategy 'net::3' has an empty parameter\n",
            ),
            (
                ["equivalence", "--space", LP2, "--blocking", "1|2", "--ref-p", "x"],
                "usage error: --ref-p needs a number, got 'x'\n",
            ),
            (
                ["stabilized", "--space", LP2, "--p", "x"],
                "usage error: --p needs a number, got 'x'\n",
            ),
            (
                ["hindman", "--coloring", "constant:x", "--M", "3", "--L", "2"],
                "usage error: --coloring constant:v needs an integer v, got 'constant:x'\n",
            ),
            (
                ["milliken", "--coloring", "constant", "--P", "singletons:x", "--k", "2", "--L", "2"],
                "usage error: --P singletons:M needs an integer M, got 'singletons:x'\n",
            ),
            (["hindman", "--coloring", "constant:-1", "--M", "3", "--L", "2"], "constant color must be >= 0, got -1"),
            (["stabilized", "--space", LP2, "--schedule", "a"], "config error: expected comma-separated integers, got 'a'\n"),
            (
                ["spreading", "--space", LP2, "--blocking", "1|2|3", "--horizons", "1,b"],
                "config error: expected comma-separated integers, got '1,b'\n",
            ),
            (["verify-example-space", "--ps", "1,x"], "config error: expected comma-separated numbers, got '1,x'\n"),
            (
                [
                    "milliken", "--coloring", "norm-quant", "--P", "singletons:4", "--k", "2", "--L", "2",
                    "--space", LP2, "--coeffs", "1,y",
                ],
                "config error: expected comma-separated numbers, got '1,y'\n",
            ),
            (
                ["equivalence", "--space", LP2, "--blocking", "1|2|3", "--max-n", "2"],
                "unrecognized arguments: --max-n",
            ),
            (
                ["equivalence", "--space", "{bad", "--blocking", "1|2|3"],
                "config error: --space is not valid JSON (Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)); it takes a space document such as "
                '{"kind": "lp", "p": 2}, inline or in a file\n',
            ),
            (
                ["equivalence", "--space", "{bad", "--blocking", "1|2|3", "--format", "csv"],
                "config error: --space is not valid JSON (Expecting property name",
            ),
            (["norm", "--space", "[1,", "--vector", "1:1"], "config error: --space is not valid JSON (Expecting value"),
        ],
    )
    def test_count_below_its_minimum_is_usage_error(self, monkeypatch, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("ran with an invalid count")

        for name in (
            "equivalence_constant", "asymptotic_lp_verdict", "play", "spreading_model_estimate",
            "goodness_test", "milliken_taylor_search", "brunel_sucheston_extract",
            "krivine_p_estimate", "hindman_search", "verify_example_space",
        ):
            monkeypatch.setattr(cli, name, never)
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, p",
        [
            (["equivalence", "--space", LP2, "--blocking", "1|2|3", "--ref-p", "0"], "0.0"),
            (["equivalence", "--space", LP2, "--blocking", "1|2|3", "--ref-p", "0.5"], "0.5"),
            (["equivalence", "--space", LP2, "--blocking", "1|2|3", "--ref-p", "nan"], "nan"),
            (["stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--p", "0"], "0.0"),
            (["stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--p", "-1"], "-1.0"),
        ],
    )
    def test_reference_exponent_outside_one_to_inf_is_usage_error(self, monkeypatch, argv, p):
        def never(*args, **kwargs):
            raise AssertionError("scanned or sampled against an invalid reference")

        # the stabilized command checks p inside asymptotic_lp_verdict, ahead of its sampling
        monkeypatch.setattr(cli, "equivalence_constant", never)
        monkeypatch.setattr(games, "equivalence_constant", never)
        monkeypatch.setattr(games, "_tuple_pool", never)
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert f"exponent p={p} outside [1, inf]" in err

    @pytest.mark.parametrize("schedule, low", [("0,5", 0), ("-4,5", -4), ("5,3,-1", -1)])
    def test_cutoff_below_one_is_usage_error(self, monkeypatch, schedule, low):
        def never(*args, **kwargs):
            raise AssertionError("sampled for a cutoff below 1")

        # the check sits inside asymptotic_lp_verdict, ahead of its sampling
        monkeypatch.setattr(games, "_tuple_pool", never)
        argv = ["stabilized", "--space", LP2, "--n", "2", f"--schedule={schedule}", "--samples", "3"]
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (2, "", f"config error: schedule cutoffs must be >= 1, got {low}\n")

    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(
                ["stabilized", "--space", LP2, "--n", "3", "--window", "100000000000"],
                "schedule 1..100 and window 100000000000 span [1, 100000000100], "
                f"which holds 200000000193 structured block 3-tuples, past the limit of {games._POOL_LIMIT}",
                id="window",
            ),
            pytest.param(
                ["stabilized", "--space", LP2, "--n", "3", "--schedule", "1,100000000000"],
                "schedule 1..100000000000 and window 24 span [1, 100000000024], "
                f"which holds 200000000041 structured block 3-tuples, past the limit of {games._POOL_LIMIT}",
                id="schedule",
            ),
            pytest.param(
                ["stabilized", "--space", LP2, "--n", "3", "--samples", "100000000000"],
                f"samples must be <= {games._POOL_LIMIT}, got 100000000000",
                id="samples",
            ),
            pytest.param(
                ["stabilized", "--space", LP2, "--n", "14"],
                f"net step 0.25 and max_len 14 give 25736391511816 tuples, past the limit of {analysis._NET_LIMIT}",
                id="n",
            ),
            pytest.param(
                ["stabilize-nccb", "--space", LP2, "--M", "6", "--net-step", "1e-9"],
                f"net step 1e-09 and max_len 2 give 4000000006000000000 tuples, past the limit of {analysis._NET_LIMIT}",
                id="net-step",
            ),
            pytest.param(
                ["stabilize-nccb", "--space", LP2, "--M", "6", "--max-n", "50"],
                f"net step 0.25 and max_len 50 give {(9 ** 51 - 9) // 8 - 50} tuples, past the limit of {analysis._NET_LIMIT}",
                id="max-n",
            ),
        ],
    )
    def test_a_sample_span_past_the_pool_limit_is_refused_before_building(self, argv, error):
        # in a child whose address space is capped at 1 GB, so that a pool or
        # net built after all fails there instead of filling the machine
        pytest.importorskip("resource")
        child = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from banachkit.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", child, *argv],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert float(done.stdout) < 1.0  # seconds in main, and nothing else on stdout
        assert done.stderr == f"config error: {error}\n"

    @pytest.mark.parametrize("step, max_len", [(1.0, 1), (1.0, 4), (0.5, 3), (0.25, 2), (0.1, 2)])
    def test_a_net_is_counted_exactly_against_its_limit(self, monkeypatch, step, max_len):
        size = len(analysis.ScalarNet.grid(step, max_len).tuples)
        monkeypatch.setattr(analysis, "_NET_LIMIT", size)
        assert len(analysis.ScalarNet.grid(step, max_len).tuples) == size
        monkeypatch.setattr(analysis, "_NET_LIMIT", size - 1)
        with pytest.raises(ValueError, match=f"give {size} tuples, past the limit of {size - 1}$"):
            analysis.ScalarNet.grid(step, max_len)

    @pytest.mark.parametrize("step, max_len, digits", [(1e-300, 3, 900), (0.25, 100_000_000_000, 95424250943)])
    def test_a_net_too_large_to_count_is_refused_by_its_digits(self, step, max_len, digits):
        with pytest.raises(ValueError, match=rf"max_len {max_len} give about 10\^{digits} tuples, past the limit"):
            analysis.ScalarNet.grid(step, max_len)

    def test_the_net_limit_is_far_above_the_largest_tested_net(self):
        assert len(analysis.ScalarNet.grid(0.25, 4).tuples) == 7_376 < analysis._NET_LIMIT // 100

    def test_the_pool_limit_is_far_above_the_readme_run(self):
        # the README run builds 241 structured tuples; the largest golden or
        # test run, n = 2 over the same span, builds 244
        assert len(games._structured_tuples(Lp(2.0), 3, 1, 124)) == 241
        assert len(games._structured_tuples(Lp(2.0), 2, 1, 124)) == 244 < games._POOL_LIMIT // 100

    @pytest.mark.parametrize("ref_n, expected", [(None, 3), ("1", 1), ("2", 2)])
    def test_ref_n_is_used_as_given(self, ref_n, expected):
        argv = ["equivalence", "--space", LP2, "--blocking", "1|2|3"]
        code, doc = run_json(*argv, *([] if ref_n is None else ["--ref-n", ref_n]))
        assert code == 0
        assert doc["config"]["ref-n"] == (None if ref_n is None else int(ref_n))
        assert doc["result"]["n"] == doc["result"]["reference"]["n"] == expected

    def test_zero_counts_are_accepted(self):
        code, doc = run_json("game", "--space", LP2, "--rounds", "0")
        assert code == 0
        assert doc["result"]["moves"] == []
        code, doc = run_json(
            "stabilized", "--space", LP2, "--n", "2", "--schedule", "1,3", "--samples", "0"
        )
        assert code == 0
        assert doc["config"]["samples"] == 0
        code, doc = run_json(
            "spreading", "--space", LP2, "--blocking", "1|2|3|4", "--horizons", "1", "--window", "0"
        )
        assert code == 0
        # a zero-width window hosts single vectors only
        assert all(r["feasible"] == (len(r["coeffs"]) == 1) for r in doc["result"]["records"])

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

    @pytest.mark.parametrize(
        "argv, report_class",
        [
            (["goodness", "--space", LP2, "--blocking", "1|2|3|4", "--net-step", "1"], GoodnessReport),
            (["spreading", "--space", LP2, "--blocking", "1|2|3|4", "--horizons", "1,2"], SpreadingEstimate),
            (["stabilized", "--space", LP2, "--schedule", "1,3", "--samples", "2"], AsymptoticVerdict),
        ],
    )
    @pytest.mark.parametrize("fmt, unused", [("json", "to_rows"), ("csv", "to_doc")])
    def test_report_builds_only_the_format_it_prints(self, monkeypatch, argv, report_class, fmt, unused):
        calls = []
        monkeypatch.setattr(report_class, unused, lambda self: calls.append(self))
        code, out, err = run_cli(*argv, "--format", fmt)
        assert (code, err, calls) == (0, "", [])
        assert out

    def test_main_declares_only_the_invoked_commands_options(self, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(real(command)) or built[-1])
        run_cli("norm", "--space", LP2, "--vector", "1:1")
        (commands,) = [a for a in built[0]._actions if isinstance(a, argparse._SubParsersAction)]
        assert {name: [a.dest for a in sub._actions] for name, sub in commands.choices.items()} == {
            "norm": ["help", "space", "vector", "seed", "format"]
        }
        assert built[0].format_usage() == real().format_usage()

    def test_json_reports_refuse_nan(self):
        args = argparse.Namespace(command="norm", format="json")
        with pytest.raises(ValueError):
            cli._emit(args, {"norm": math.nan})

    def test_infinity_outside_an_exponent_is_not_reported(self, monkeypatch):
        # only exponents are written as "inf"; any other infinite float stays
        # a float in the document and fails JSON emission
        real = krivine_p_estimate

        def with_infinite_fit(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), r_squared=math.inf)

        monkeypatch.setattr(cli, "krivine_p_estimate", with_infinite_fit)
        code, out, err = run_cli("krivine-p", "--space", '{"kind":"c0"}')
        assert code == 2
        assert out == "" and "JSON" in err

    def test_unknown_command_exits_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2
