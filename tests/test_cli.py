import json

import pytest

from ncfree.cli import main


@pytest.fixture
def semicircular_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "trace": {"variant": "semicircular", "variances": ["1", "1"]},
                "ensemble": {
                    "dim": 60,
                    "samples": 2,
                    "matrices": [{"kind": "gue"}, {"kind": "gue"}],
                },
                "degree_bound": 10,
            }
        )
    )
    return str(path)


@pytest.fixture
def bernoulli_cli_spec(tmp_path):
    moments = [{"word": [1] * k, "value": "0" if k % 2 else "1"} for k in range(5)]
    path = tmp_path / "bernoulli.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "trace": {"variant": "explicit", "degree": 4, "moments": moments},
            }
        )
    )
    return str(path)


def read_result(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


# -- verify-conjugate -----------------------------------------------------------


def test_verify_conjugate_passes(semicircular_spec, capsys):
    code = main(
        [
            "verify-conjugate",
            "--spec",
            semicircular_spec,
            "--xi",
            "1 * Z 1;1 * Z 2",
            "--degree",
            "4",
        ]
    )
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["passed"] is True
    assert document["metadata"]["command"] == "verify-conjugate"
    assert document["metadata"]["rng"] == "numpy-pcg64"
    assert len(document["metadata"]["spec_digest"]) == 64


def test_verify_conjugate_fails_with_witness(semicircular_spec, capsys):
    code = main(
        [
            "verify-conjugate",
            "--spec",
            semicircular_spec,
            "--xi",
            "2 * Z 1;1 * Z 2",
            "--degree",
            "3",
        ]
    )
    document, _ = read_result(capsys)
    assert code == 1
    first = document["result"]["failures"][0]
    assert first["j"] == 1 and first["word"] == [1]


def test_missing_xi_is_a_usage_error(semicircular_spec, capsys):
    assert main(["verify-conjugate", "--spec", semicircular_spec]) == 2
    assert "requires --xi" in capsys.readouterr().err


def test_bad_spec_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["relations", "--spec", str(bad)]) == 2
    assert main(["relations", "--spec", str(tmp_path / "absent.json")]) == 2


# -- duality --------------------------------------------------------------------


def test_duality_sweep(semicircular_spec, capsys):
    code = main(
        ["duality", "--spec", semicircular_spec, "--trials", "25", "--degree", "4"]
    )
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["failures"] == []
    assert document["result"]["trials"] == 25


# -- reduce ---------------------------------------------------------------------


def test_reduce_extracts_coefficient(semicircular_spec, capsys):
    code = main(
        [
            "reduce",
            "--spec",
            semicircular_spec,
            "--poly",
            "3 * Z 1 2 + 1 * Z 1",
            "--word",
            "1,2",
        ]
    )
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["coefficient"] == "3"


def test_reduce_rejects_short_word(semicircular_spec, capsys):
    code = main(
        [
            "reduce",
            "--spec",
            semicircular_spec,
            "--poly",
            "3 * Z 1 2",
            "--word",
            "1",
        ]
    )
    assert code == 2


# -- relations --------------------------------------------------------------------


def test_relations_empty_for_semicircular(semicircular_spec, capsys):
    code = main(["relations", "--spec", semicircular_spec, "--degree", "2"])
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["kernel_dimension"] == 0


def test_relations_detects_bernoulli(bernoulli_cli_spec, capsys):
    code = main(["relations", "--spec", bernoulli_cli_spec, "--degree", "2"])
    document, _ = read_result(capsys)
    assert code == 1
    assert document["result"]["kernel_dimension"] == 1
    assert "Z 1 1" in document["result"]["kernel"][0]


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_structured(semicircular_spec, capsys):
    code = main(
        ["spectrum", "--spec", semicircular_spec, "--poly", "1 * Z 1", "--seed", "5"]
    )
    document, _ = read_result(capsys)
    assert code == 0
    assert document["metadata"]["seed"] == 5
    assert len(document["result"]["histogram"]["counts"]) == 100


def test_spectrum_csv_is_reproducible(semicircular_spec, tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(
            [
                "spectrum",
                "--spec",
                semicircular_spec,
                "--poly",
                "1 * Z 1 2 + 1 * Z 2 1",
                "--seed",
                "9",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().startswith("eigenvalue\n")
    # metadata goes to stderr, not into the payload
    err = capsys.readouterr().err
    assert "spec_digest" in err


def test_spectrum_rejects_non_self_adjoint(semicircular_spec, capsys):
    code = main(
        ["spectrum", "--spec", semicircular_spec, "--poly", "1 * Z 1 2"]
    )
    assert code == 2


# -- margins ---------------------------------------------------------------------


def test_margins_sweep(semicircular_spec, capsys):
    code = main(
        [
            "margins",
            "--spec",
            semicircular_spec,
            "--xi",
            "1 * Z 1;1 * Z 2",
            "--trials",
            "3",
            "--degree",
            "3",
            "--seed",
            "2",
        ]
    )
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["worst_margin"] > -0.05
    assert len(document["result"]["reports"]) == 3


# -- report -----------------------------------------------------------------------


def test_combined_report(semicircular_spec, capsys):
    code = main(
        [
            "report",
            "--spec",
            semicircular_spec,
            "--xi",
            "1 * Z 1;1 * Z 2",
            "--degree",
            "4",
        ]
    )
    document, _ = read_result(capsys)
    assert code == 0
    result = document["result"]
    assert result["conjugate"]["passed"] is True
    assert result["relations"]["kernel_dimension"] == 0
    assert result["fisher_information"]["value"] == 2.0


def test_output_file(semicircular_spec, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify-conjugate",
            "--spec",
            semicircular_spec,
            "--xi",
            "1 * Z 1;1 * Z 2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    document = json.loads(out.read_text())
    assert document["result"]["passed"] is True


# -- usage errors at the boundary ----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-conjugate", "--xi", "1 * Z 1;1 * Z 2", "--degree", "-3"],
        ["duality", "--trials", "-5"],
        ["margins", "--xi", "1 * Z 1;1 * Z 2", "--trials", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(semicircular_spec, capsys, argv):
    assert main(argv[:1] + ["--spec", semicircular_spec] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must be non-negative" in captured.err


@pytest.mark.parametrize("fmt", ["structured", "csv"])
def test_unwritable_output_is_a_usage_error(semicircular_spec, tmp_path, capsys, fmt):
    out = tmp_path / "missing" / "dir" / "x.json"
    code = main(
        ["relations", "--spec", semicircular_spec, "--degree", "1",
         "--format", fmt, "--out", str(out)]
    )
    assert code == 2
    assert "error: cannot write --out file" in capsys.readouterr().err
    assert not out.exists()


def write_explicit_spec(tmp_path, n, degree, table):
    moments = [{"word": list(w), "value": v} for w, v in table.items()]
    path = tmp_path / "explicit.json"
    path.write_text(
        json.dumps(
            {
                "n": n,
                "trace": {"variant": "explicit", "degree": degree, "moments": moments},
            }
        )
    )
    return str(path)


def test_relations_on_an_indefinite_gram_is_a_usage_error(tmp_path, capsys):
    # G = [[1, 2], [2, 1]] is indefinite: no state has these moments, so an
    # empty kernel would be a false certificate
    spec = write_explicit_spec(tmp_path, 1, 2, {(): "1", (1,): "2", (1, 1): "1"})
    code = main(["relations", "--spec", spec, "--degree", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "positive semidefinite" in captured.err


def test_non_tracial_table_is_a_usage_error(tmp_path, capsys):
    table = {(): "1", (1,): "0", (2,): "0", (1, 1): "1", (2, 2): "1",
             (1, 2): "1", (2, 1): "7"}
    spec = write_explicit_spec(tmp_path, 2, 2, table)
    assert main(["relations", "--spec", spec, "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not tracial" in captured.err


def test_crash_is_an_internal_error(semicircular_spec, capsys, monkeypatch):
    def crash(args, data):
        raise RuntimeError("boom")

    monkeypatch.setattr("ncfree.cli.cmd_relations", crash)
    assert main(["relations", "--spec", semicircular_spec]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "boom" in captured.err


def test_duplicate_table_word_is_a_usage_error(tmp_path, capsys):
    # a word listed twice must not silently keep its last value
    moments = [
        {"word": [], "value": "1"},
        {"word": [1], "value": "0"},
        {"word": [1, 1], "value": "1"},
        {"word": [1, 1], "value": "-5"},
    ]
    path = tmp_path / "duplicate.json"
    path.write_text(
        json.dumps(
            {"n": 1, "trace": {"variant": "explicit", "degree": 2, "moments": moments}}
        )
    )
    assert main(["relations", "--spec", str(path), "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "(1 1) is listed twice" in captured.err


@pytest.mark.parametrize(
    "word, value, message",
    [
        (("1",), "0", "outside 1..2"),
        ((1.5,), "0", "outside 1..2"),
        # values are exact scalars in text form; a JSON number is refused
        ((1,), 0, "is not a string"),
    ],
    ids=["string-letter", "float-letter", "number-value"],
)
def test_malformed_table_entry_is_a_usage_error(tmp_path, capsys, word, value, message):
    spec = write_explicit_spec(tmp_path, 2, 2, {(): "1", word: value})
    assert main(["relations", "--spec", spec, "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "trace",
    [
        {"variant": "semicircular", "variances": [0.1]},
        {"variant": "free", "moments": [["0", 1.0]]},
    ],
    ids=["semicircular", "free"],
)
def test_float_in_trace_section_is_a_usage_error(tmp_path, capsys, trace):
    # 0.1 would enter the exact layer as 3602879701896397/36028797018963968
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"n": 1, "trace": trace}))
    assert main(["relations", "--spec", str(path), "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "is not a string or an integer" in captured.err


def test_non_list_table_word_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "word.json"
    moments = [{"word": [], "value": "1"}, {"word": 5, "value": "0"}]
    path.write_text(
        json.dumps({"n": 1, "trace": {"variant": "explicit", "degree": 2, "moments": moments}})
    )
    assert main(["relations", "--spec", str(path), "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "moment word 5 is not a list" in captured.err
