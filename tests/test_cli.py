import argparse
import csv
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

import pytest

import ncfree
from ncfree import NcPoly, randmat
from ncfree.cli import main
from ncfree.sweeps import rand_poly

from conftest import gens, run_python


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


# -- spec encoding and CSV payloads ----------------------------------------------


def test_a_spec_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    document = json.dumps({"n": 1, "trace": {"variant": "semicircular", "variances": ["1"]}})
    # a UTF-16 file with its byte-order mark, as some editors save JSON
    path.write_bytes(b"\xff\xfe" + document.encode("utf-16-le"))
    assert main(["relations", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read spec file: 'utf-8' codec can't decode")


def _csv_cell(result: dict, name: str):
    """The structured result's value at a flattened CSV row name."""
    for part in name.split("."):
        result = result[part]
    return result


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--poly", "3 * Z 1 2 + 1 * Z 1", "--word", "1,2"],
        ["relations", "--degree", "2"],
        ["verify-conjugate", "--xi", "2 * Z 1;1 * Z 2", "--degree", "3"],
        ["duality", "--trials", "3", "--degree", "2"],
        ["margins", "--xi", "1 * Z 1;1 * Z 2", "--trials", "2", "--degree", "2"],
        ["report", "--xi", "1 * Z 1;1 * Z 2", "--degree", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_rows_read_back_as_the_structured_result(semicircular_spec, capsys, argv):
    argv = [argv[0], "--spec", semicircular_spec, *argv[1:]]
    main(argv)
    structured = read_result(capsys)[0]["result"]
    main([*argv, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows
    lists = 0
    for row in rows:
        assert len(row) == 2, row
        name, field = row
        expected = _csv_cell(structured, name)
        if isinstance(expected, list):
            lists += 1
            assert json.loads(field) == expected
        else:
            assert field == str(expected)
    assert lists


# -- duality --------------------------------------------------------------------


def test_duality_sweep(semicircular_spec, capsys):
    code = main(
        ["duality", "--spec", semicircular_spec, "--trials", "25", "--degree", "4"]
    )
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["failures"] == []
    assert document["result"]["trials"] == 25


def test_duality_on_no_generators_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"n": 0, "trace": {"variant": "semicircular", "variances": []}}))
    assert main(["duality", "--spec", str(spec), "--trials", "3", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duality needs at least one generator\n"


def test_duality_sweep_checks_the_trials_randint_and_choice_draw(tmp_path, monkeypatch, capsys):
    """Every seed's trials are the (w1, w2, i) that rng.randint and rng.choice
    draw, each checked once, and the generator ends in the same state."""
    checked, generators = [], []

    def recording_check(trace, p1, p2, i):
        [w1], [w2] = p1.terms, p2.terms
        checked.append((w1, w2, i))
        return check_duality(trace, p1, p2, i)

    def recording_random(seed):
        generators.append(random.Random(seed))
        return generators[-1]

    check_duality = ncfree.cli.check_duality
    monkeypatch.setattr(ncfree.cli, "check_duality", recording_check)
    monkeypatch.setattr(ncfree.cli, "random", argparse.Namespace(Random=recording_random))
    trials, degree = 12, 3
    for n in (1, 2, 3):
        spec = tmp_path / f"semicircular-{n}.json"
        spec.write_text(json.dumps(
            {"n": n, "trace": {"variant": "semicircular", "variances": ["1"] * n}}
        ))
        letters = range(1, n + 1)
        for seed in range(21):
            checked.clear()
            argv = ["duality", "--spec", str(spec), "--trials", str(trials),
                    "--degree", str(degree), "--seed", str(seed)]
            assert main(argv) == 0
            capsys.readouterr()
            reference = random.Random(seed)
            expected = []
            for _ in range(trials):
                w1 = tuple(reference.choice(letters) for _ in range(reference.randint(0, degree)))
                w2 = tuple(reference.choice(letters) for _ in range(reference.randint(1, degree)))
                expected.append((w1, w2, reference.randint(1, n)))
            assert checked == expected
            assert generators[-1].getstate() == reference.getstate()


def reference_trials(seed, n, trials, degree):
    """The (w1, w2, i) of each duality trial, drawn with randint and choice."""
    reference, letters = random.Random(seed), range(1, n + 1)
    for _ in range(trials):
        w1 = tuple(reference.choice(letters) for _ in range(reference.randint(0, degree)))
        w2 = tuple(reference.choice(letters) for _ in range(reference.randint(1, degree)))
        yield w1, w2, reference.randint(1, n)


@pytest.mark.parametrize("seed", [1, 3, 7, 11])
def test_duality_builds_each_distinct_monomial_once(capsys, monkeypatch, seed):
    built = []
    original = NcPoly._trusted.__func__

    def counting(cls, n, terms):
        built.append(tuple(terms))
        return original(cls, n, terms)

    monkeypatch.setattr(NcPoly, "_trusted", classmethod(counting))
    argv = ["duality", "--spec", str(BENCH_SPECS / "semicircular-2.json"), "--trials", "200",
            "--degree", "5", "--seed", str(seed)]
    assert main(argv) == 0
    capsys.readouterr()
    words = {w for w1, w2, _ in reference_trials(seed, 2, 200, 5) for w in (w1, w2)}
    assert len(built) == len(words) < 400
    assert {w for [w] in built} == words


@pytest.mark.parametrize("seed", [1, 7])
def test_duality_prints_each_failing_trial(capsys, seed):
    """With tau(Z1) = i, tau(v*) is not conj tau(v) at v = (1): the failures
    block lists what check_duality rejects, in the order drawn."""
    spec = str(BENCH_SPECS / "semicircular-2.json")
    trace = ncfree.cli.trace_from(ncfree.cli.load_spec_file(spec))
    trace._memo[(1,)] = ncfree.Scalar(0, 1)
    argv = ["duality", "--spec", spec, "--trials", "60", "--degree", "3", "--seed", str(seed)]
    assert main(argv) == 1
    document, _ = read_result(capsys)
    [kept] = ncfree.cli._traces.values()
    assert kept is trace
    expected = []
    for w1, w2, i in reference_trials(seed, 2, 60, 3):
        p1, p2 = NcPoly.monomial(2, w1), NcPoly.monomial(2, w2)
        if not ncfree.conjugate.check_duality(trace, p1, p2, i):
            expected.append({"p1": p1.to_text(), "p2": p2.to_text(), "i": i})
    assert document["result"]["failures"] == expected
    assert any(failure["p1"] == "1 * Z" for failure in expected)
    assert len(expected) < 60


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


def test_reduce_rejects_the_zero_polynomial(semicircular_spec, capsys):
    code = main(["reduce", "--spec", semicircular_spec, "--poly", "0", "--word", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the zero polynomial has no leading coefficient\n"


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


def test_relations_on_free_poisson_at_degree_8_is_fast(tmp_path, capsys):
    # 511 words, on which the Gram path takes about 20 s; each letter's 9x9
    # Hankel matrix certifies the family instead
    catalan = [1]
    for k in range(1, 16):
        catalan.append(catalan[-1] * 2 * (2 * k + 1) // (k + 2))
    path = tmp_path / "free-poisson.json"
    sequence = [str(m) for m in catalan]
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "trace": {"variant": "free", "moments": [sequence, sequence]},
                "degree_bound": 16,
            }
        )
    )
    start = time.perf_counter()
    code = main(["relations", "--spec", str(path), "--degree", "8"])
    elapsed = time.perf_counter() - start
    document, _ = read_result(capsys)
    assert code == 0
    assert document["result"]["kernel_dimension"] == 0
    assert elapsed < 1.0


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


@pytest.mark.parametrize("kind", ["rademacher", "gue"])
@pytest.mark.parametrize("poly", ["1 * Z 1", "1 * Z 2"])
def test_spectrum_needs_one_matrix_per_generator(tmp_path, capsys, kind, poly):
    # a trace over two letters, an ensemble of one matrix: the all-diagonal
    # path must reject it as the dense path does, for either letter
    path = tmp_path / "one-matrix.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "trace": {"variant": "semicircular", "variances": ["1", "1"]},
                "ensemble": {
                    "n": 1, "dim": 4, "samples": 1, "matrices": [{"kind": kind}]
                },
            }
        )
    )
    assert main(["spectrum", "--spec", str(path), "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 2 matrices, got 1\n"


def test_spectrum_of_a_constant_without_generators(tmp_path, capsys):
    path = tmp_path / "no-generators.json"
    path.write_text(
        json.dumps(
            {
                "n": 0,
                "trace": {"variant": "semicircular", "variances": []},
                "ensemble": {"dim": 3, "samples": 2, "matrices": []},
            }
        )
    )
    code = main(["spectrum", "--spec", str(path), "--poly", "2 * Z", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "eigenvalue\n" + "2.0\n" * (2 * 3)


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


def test_margins_draws_its_ensemble_once(semicircular_spec, capsys, monkeypatch):
    draws = []
    original = randmat._draws

    def counting(config):
        draws.append(config)
        return original(config)

    monkeypatch.setattr(randmat, "_draws", counting)
    argv = ["margins", "--spec", semicircular_spec, "--xi", "1 * Z 1;1 * Z 2"]
    assert main(argv + ["--trials", "3", "--degree", "3", "--seed", "2"]) == 0
    document, _ = read_result(capsys)
    assert len(draws) == 1
    # the reports are those of trials that each draw the ensemble themselves
    config = randmat.EnsembleConfig(2, 60, (randmat.GUE(),) * 2, 2, 2)
    trace = ncfree.TraceFunctional(ncfree.DistributionSpec.standard_semicircular(2), 10)
    cand = ncfree.ConjugateCandidate(gens(2), trace)
    rng = random.Random(2)
    expected = []
    for _ in range(3):
        p = rand_poly(rng, 2, 3)
        j = rng.randint(1, 2)
        report = randmat.empirical_margins(cand, j, p, randmat.sample(config))
        expected.append({"poly": p.to_text(), "j": j, **report.to_dict()})
    assert len(draws) == 4
    assert document["result"]["reports"] == expected


def test_margins_checks_the_matrix_count_before_it_draws(tmp_path, capsys, monkeypatch):
    draws = []
    original = randmat._draw

    def counting(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(randmat, "_draw", counting)
    path = tmp_path / "three-matrices.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "trace": {"variant": "semicircular", "variances": ["1", "1"]},
                "ensemble": {
                    "n": 3, "dim": 200, "samples": 5, "matrices": [{"kind": "gue"}] * 3
                },
            }
        )
    )
    argv = ["margins", "--spec", str(path), "--xi", "1 * Z 1;1 * Z 2", "--trials", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 2 matrices, got 3\n"
    assert draws == []


@pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
def test_non_finite_slack_is_a_usage_error(semicircular_spec, capsys, slack):
    # NaN would fail every margin and +inf pass every one
    argv = ["margins", "--spec", semicircular_spec, "--xi", "1 * Z 1;1 * Z 2"]
    assert main(argv + ["--trials", "1", "--degree", "1", f"--slack={slack}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--slack must be a finite number" in captured.err


def test_margins_without_trials_is_strict_json(semicircular_spec, capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    argv = ["margins", "--spec", semicircular_spec, "--xi", "1 * Z 1;1 * Z 2"]
    assert main(argv + ["--trials", "0"]) == 0
    document = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert document["result"] == {"trials": 0, "worst_margin": None, "reports": []}


@pytest.mark.parametrize(
    "command, tag, seed, message",
    [
        (command, tag, seed, message)
        for command in ("spectrum", "margins")
        for tag, seed, message in [
            ({"kind": "diagonal-moments", "moments": [0, -1]}, "0",
             "moment sequence is not realized by any 1-point measure"),
            ({"kind": "gue"}, "-1", "--seed must be non-negative, got -1"),
        ]
    ],
    ids=["spectrum-non-measure", "spectrum-negative-seed",
         "margins-non-measure", "margins-negative-seed"],
)
def test_sampling_error_is_a_usage_error(tmp_path, capsys, command, tag, seed, message):
    path = tmp_path / "ensemble.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "trace": {"variant": "semicircular", "variances": ["1"]},
                "ensemble": {"dim": 4, "samples": 1, "matrices": [tag]},
            }
        )
    )
    argv = [command, "--spec", str(path), "--seed", seed, "--degree", "1"]
    argv += ["--poly", "1 * Z 1"] if command == "spectrum" else ["--xi", "1 * Z 1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


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


def test_report_caps_the_kernel_degree_by_the_table(bernoulli_cli_spec, capsys):
    # the table stops at words of length 4, so relations stop at degree 2,
    # whatever the (larger) default degree bound
    code = main(
        ["report", "--spec", bernoulli_cli_spec, "--xi", "1 * Z 1", "--degree", "3"]
    )
    document, err = read_result(capsys)
    assert code == 1
    assert err == ""
    assert document["result"]["relations"] == {
        "degree": 2, "kernel_dimension": 1, "kernel": ["-1 * Z + 1 * Z 1 1"]
    }


def test_report_caps_the_kernel_degree_by_the_moment_depth(tmp_path, capsys):
    catalan = ["1", "2", "5", "14", "42", "132", "429", "1430"]
    path = tmp_path / "free-poisson-8.json"
    path.write_text(
        json.dumps(
            {"n": 2, "trace": {"variant": "free", "moments": [catalan, catalan]}}
        )
    )
    code = main(
        ["report", "--spec", str(path), "--xi", "1 * Z 1;1 * Z 2", "--degree", "5"]
    )
    document, err = read_result(capsys)
    # Z_j is not the conjugate variable of a free Poisson letter
    assert code == 1
    assert err == ""
    assert document["result"]["relations"] == {
        "degree": 4, "kernel_dimension": 0, "kernel": []
    }


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


def test_a_structured_document_is_one_line(semicircular_spec, tmp_path, capsys):
    # xi_1 = 2 Z_1 doubles tau(xi_1 w) and leaves (tau (x) tau)(d_1 w) alone, so
    # every word of odd degree in Z_1, even in Z_2, on which the latter is not 0
    # fails: (tau (x) tau)(d_1 w) = 1, 2, 1, 1 on 1, 1 1 1, 1 2 2, 2 2 1
    argv = ["verify-conjugate", "--spec", semicircular_spec]
    argv += ["--xi", "2 * Z 1;1 * Z 2", "--degree", "3"]
    out = tmp_path / "failing.json"
    assert main(argv) == 1
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    written = out.read_text()
    expected = {
        "metadata": {
            "version": ncfree.__version__,
            "command": "verify-conjugate",
            "seed": 0,
            "spec_digest": hashlib.sha256(Path(semicircular_spec).read_bytes()).hexdigest(),
            "rng": "numpy-pcg64",
        },
        "result": {
            "max_degree_checked": 3,
            "passed": False,
            "failures": [
                {"j": 1, "word": [1], "lhs": "1", "rhs": "2"},
                {"j": 1, "word": [1, 1, 1], "lhs": "2", "rhs": "4"},
                {"j": 1, "word": [1, 2, 2], "lhs": "1", "rhs": "2"},
                {"j": 1, "word": [2, 2, 1], "lhs": "1", "rhs": "2"},
            ],
        },
    }
    for text in (printed, written):
        assert text.endswith("\n") and text.count("\n") == 1, text
        assert comparable(text) == expected


# the C encoder serves json.dumps only without indent; where the interpreter
# lacks it, every document goes through _make_iterencode and this cannot hold
@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-conjugate", "--xi", "1 * Z 1;1 * Z 2"], 0),
        (["verify-conjugate", "--xi", "2 * Z 1;1 * Z 2"], 1),
        (["relations", "--degree", "2"], 0),
        (["report", "--xi", "1 * Z 1;1 * Z 2", "--degree", "2"], 0),
        (["duality", "--trials", "5", "--degree", "3"], 0),
        (["spectrum", "--poly", "1 * Z 1"], 0),
        (["margins", "--xi", "1 * Z 1;1 * Z 2", "--trials", "2", "--degree", "2"], 0),
        (["reduce", "--poly", "3 * Z 1 2 + 1 * Z 1", "--word", "1,2"], 0),
    ],
    ids=["verify-passing", "verify-failing", "relations", "report", "duality",
         "spectrum", "margins", "reduce"],
)
def test_structured_documents_use_the_c_encoder(semicircular_spec, capsys, monkeypatch, argv, code):
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("a document went through the pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    assert main([argv[0], "--spec", semicircular_spec, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["metadata"]["command"] == argv[0]


# -- usage errors at the boundary ----------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-conjugate", "--xi", "1 * Z 1;1 * Z 2", "--degree", "-3"],
         "--degree must be non-negative"),
        (["duality", "--trials", "-5"], "--trials must be non-negative"),
        (["margins", "--xi", "1 * Z 1;1 * Z 2", "--trials", "-1"],
         "--trials must be non-negative"),
        # every duality trial draws a second word of at least one letter
        (["duality", "--degree", "0"], "--degree must be at least 1 for duality"),
        # random.Random would fold it onto 1 (spectrum and margins: see
        # test_sampling_error_is_a_usage_error)
        (["duality", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ],
    ids=["argv0", "argv1", "argv2", "argv3", "argv4"],
)
def test_negative_counts_are_usage_errors(semicircular_spec, capsys, argv, message):
    assert main(argv[:1] + ["--spec", semicircular_spec] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


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


SEMICIRCULAR_2 = {"variant": "semicircular", "variances": ["1", "1"]}
XI = ["--xi", "1 * Z 1;1 * Z 2"]


@pytest.mark.parametrize(
    "trace, command, message",
    [
        ({"variant": "semicircular", "variances": ["1/0", "1"]}, ["relations"],
         "number '1/0' has a zero denominator"),
        ({"variant": "free", "moments": [["0", "1"], ["0", "1/0"]]},
         ["verify-conjugate", *XI], "number '1/0' has a zero denominator"),
        ({"variant": "explicit", "degree": 2, "moments": [{"word": [1, 1], "value": "1/0"}]},
         ["spectrum", "--poly", "1 * Z 1"], "scalar '1/0' has a zero denominator"),
        (SEMICIRCULAR_2, ["verify-conjugate", "--xi", "1/0 * Z 1;1 * Z 2"],
         "scalar '1/0 ' has a zero denominator"),
        (SEMICIRCULAR_2, ["spectrum", "--poly", "1/0 * Z 1"],
         "scalar '1/0 ' has a zero denominator"),
    ],
    ids=["variance", "free-moment", "table-value", "xi", "poly"],
)
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, trace, command, message):
    path = tmp_path / "zero.json"
    ensemble = {"dim": 2, "samples": 1, "matrices": [{"kind": "gue"}] * 2}
    path.write_text(json.dumps({"n": 2, "trace": trace, "ensemble": ensemble}))
    assert main([command[0], "--spec", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


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


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("relations", {"trace": {"variant": "free", "moments": 5}},
         "moment sequences 5 is not a list"),
        ("relations", {"trace": {"variant": "explicit", "degree": 1, "moments": [5]}},
         "moment table entry 5 is not an object"),
        ("spectrum", {"ensemble": {"dim": 2, "samples": 1, "matrices": 5}},
         "matrices 5 is not a list"),
        ("spectrum", {"ensemble": {"dim": 2, "samples": 1, "matrices": [5]}},
         "matrices entry 5 is not an object"),
        ("spectrum",
         {"ensemble": {"dim": 2, "samples": 1,
                       "matrices": [{"kind": "diagonal-moments", "moments": 0.5}]}},
         "moments 0.5 is not a list"),
        ("relations", {"n": [1]}, "n must be a non-negative integer, got [1]"),
        ("relations", {"n": True}, "n must be a non-negative integer, got True"),
        ("relations", {"trace": {"variant": "explicit", "degree": 1.5, "moments": []}},
         "degree must be a non-negative integer, got 1.5"),
        ("spectrum",
         {"ensemble": {"dim": 2, "samples": 1,
                       "matrices": [{"kind": "gue", "variance": [1]}]}},
         "variance [1] is not a number"),
        ("spectrum",
         {"ensemble": {"dim": 2, "samples": 1,
                       "matrices": [{"kind": "diagonal-moments", "moments": [None, 1]}]}},
         "moment None is not a number"),
        ("spectrum",
         {"ensemble": {"dim": 4.7, "samples": 1, "matrices": [{"kind": "rademacher"}]}},
         "dim must be an integer >= 1, got 4.7"),
        ("spectrum",
         {"ensemble": {"dim": 2, "samples": True, "matrices": [{"kind": "rademacher"}]}},
         "samples must be an integer >= 1, got True"),
        ("spectrum",
         {"ensemble": {"n": "1", "dim": 2, "samples": 1,
                       "matrices": [{"kind": "rademacher"}]}},
         "n must be a non-negative integer, got '1'"),
        ("spectrum",
         {"ensemble": {"dim": 2, "samples": 1,
                       "matrices": [{"kind": "gue", "variance": -1}]}},
         "GUE variance must be non-negative, got -1.0"),
        ("relations", {"trace": "semicircular"}, "the 'trace' section must be a JSON object"),
        ("relations", {"trace": 5}, "the 'trace' section must be a JSON object"),
        ("spectrum", {"trace": "semicircular"}, "the 'trace' section must be a JSON object"),
        ("spectrum", {"trace": 5}, "the 'trace' section must be a JSON object"),
        ("spectrum", {"ensemble": 5}, "the 'ensemble' section must be a JSON object"),
        ("spectrum", {"ensemble": "gue"}, "the 'ensemble' section must be a JSON object"),
        ("margins",
         {"ensemble": {"dim": 2, "samples": 1,
                       "matrices": [{"kind": "gue", "variance": -1}]}},
         "GUE variance must be non-negative, got -1.0"),
    ],
    ids=["free-moments", "table-entry", "matrices", "matrices-entry", "diagonal-moments",
         "n-list", "n-bool", "table-degree", "gue-variance-list", "diagonal-moment-null",
         "dim-float", "samples-bool", "ensemble-n-string", "spectrum-negative-variance",
         "trace-string", "trace-number", "spectrum-trace-string", "spectrum-trace-number",
         "ensemble-number", "ensemble-string", "margins-negative-variance"],
)
def test_malformed_spec_value_is_a_usage_error(tmp_path, capsys, command, spec, message):
    path = tmp_path / "malformed.json"
    trace = {"variant": "semicircular", "variances": ["1"]}
    path.write_text(json.dumps({"n": 1, "trace": trace, **spec}))
    argv = [command, "--spec", str(path), "--degree", "1"]
    if command == "spectrum":
        argv += ["--poly", "1 * Z 1"]
    if command == "margins":
        argv += ["--xi", "1 * Z 1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize("command", ["relations", "spectrum"])
@pytest.mark.parametrize("document", [[{"n": 1}], "spec"], ids=["array", "string"])
def test_spec_file_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, command, document):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(document))
    assert main([command, "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spec file must hold a JSON object\n"


@pytest.mark.parametrize("bound", ["12", True, -1], ids=["string", "bool", "negative"])
def test_bad_degree_bound_is_a_usage_error(tmp_path, capsys, bound):
    path = tmp_path / "bound.json"
    trace = {"variant": "semicircular", "variances": ["1", "1"]}
    path.write_text(json.dumps({"n": 2, "trace": trace, "degree_bound": bound}))
    code = main(["verify-conjugate", "--spec", str(path), "--xi", "1 * Z 1;1 * Z 2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "degree_bound must be a non-negative integer" in captured.err


def test_cli_never_imports_scipy(tmp_path):
    # numpy is the only numerical dependency: neither an exact command nor a
    # diagonal-moments spectrum may load scipy
    path = tmp_path / "diagonal.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "trace": {"variant": "semicircular", "variances": ["1"]},
                "ensemble": {
                    "dim": 8,
                    "samples": 2,
                    "matrices": [{"kind": "diagonal-moments", "moments": [0, 2, 2, 6]}],
                },
            }
        )
    )
    script = (
        "import sys, ncfree, ncfree.cli\n"
        "spec = sys.argv[1]\n"
        "assert ncfree.cli.main(['relations', '--spec', spec, '--degree', '2']) == 0\n"
        "assert ncfree.cli.main(['spectrum', '--spec', spec, '--poly', '1 * Z 1']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    done = run_python(script, str(path))
    assert done.returncode == 0, done.stderr


# -- in-process use -------------------------------------------------------------------


@pytest.fixture
def counted_parsers(monkeypatch):
    """A list that grows by one on every argparse.ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_parser_is_built_once(semicircular_spec, capsys, counted_parsers):
    calls = [
        ["relations", "--spec", semicircular_spec, "--degree", "1"],
        ["verify-conjugate", "--spec", semicircular_spec, "--xi", "1 * Z 1;1 * Z 2"],
        ["duality", "--spec", semicircular_spec, "--trials", "2", "--degree", "2"],
        ["reduce", "--spec", semicircular_spec, "--poly", "1 * Z 1 2", "--word", "1,2"],
        ["relations", "--spec", semicircular_spec, "--degree", "-1"],
    ]
    assert main(calls[0]) == 0
    after_first = len(counted_parsers)
    assert [main(argv) for argv in calls[1:]] == [0, 0, 0, 2]
    assert len(counted_parsers) == after_first


def test_importing_the_cli_builds_no_parser(semicircular_spec):
    script = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import ncfree.cli\n"
        "assert built == [], f'import built {built}'\n"
        "argv = ['relations', '--spec', sys.argv[1], '--degree', '1']\n"
        "assert ncfree.cli.main(argv) == 0\n"
        "assert built[0] == 'ncfree' and len(built) == 8, built\n"
        "assert ncfree.cli.main(argv) == 0\n"
        "assert len(built) == 8, built\n"
    )
    done = run_python(script, semicircular_spec)
    assert done.returncode == 0, done.stderr


def comparable(out: str):
    """A structured document without its timestamp, or the raw output."""
    try:
        document = json.loads(out)
    except json.JSONDecodeError:
        return out
    document["metadata"].pop("timestamp")
    return document


def test_in_process_calls_do_not_leak_state(tmp_path, capsys):
    # each call in one process must behave as the first call of a new one
    path = tmp_path / "small.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "trace": {"variant": "semicircular", "variances": ["1", "1"]},
                "ensemble": {
                    "dim": 8,
                    "samples": 1,
                    "matrices": [{"kind": "gue"}, {"kind": "gue"}],
                },
                "degree_bound": 10,
            }
        )
    )
    spec = str(path)
    # seed 2 gives a worst margin of about 0.47: it passes the default slack
    # and fails the stricter bound --slack=-0.5
    margins = ["margins", "--spec", spec, "--xi", "1 * Z 1;1 * Z 2"]
    margins += ["--trials", "2", "--degree", "2", "--seed", "2"]
    relations = ["relations", "--spec", spec, "--degree", "2"]
    verify = ["verify-conjugate", "--spec", spec, "--degree", "3", "--xi"]
    failing, passing = verify + ["2 * Z 1;1 * Z 2"], verify + ["1 * Z 1;1 * Z 2"]
    spectrum = ["spectrum", "--spec", spec, "--poly", "1 * Z 1 2 + 1 * Z 2 1"]
    spectrum += ["--format", "csv", "--out"]
    sequence = [
        (margins + ["--slack", "0.5"], 0),
        (margins, 0),
        (margins + ["--slack=-0.5"], 1),
        (margins, 0),
        (spectrum + ["{out}"], 0),
        (relations, 0),
        (failing, 1),
        (passing, 0),
        (relations + ["--no-such-flag"], 2),
        (relations, 0),
        (relations + ["--help"], 0),
        (passing, 0),
    ]
    run_fresh = "import sys, ncfree.cli\nsys.exit(ncfree.cli.main(sys.argv[1:]))\n"
    fresh = {}
    for argv, _ in sequence:
        key = tuple(argv)
        if key not in fresh:
            out = tmp_path / f"fresh-{len(fresh)}.csv"
            done = run_python(run_fresh, *[a.format(out=out) for a in argv])
            payload = out.read_bytes() if out.exists() else None
            fresh[key] = (done.returncode, comparable(done.stdout), payload)

    for step, (argv, expected_code) in enumerate(sequence):
        out = tmp_path / f"here-{step}.csv"
        try:
            code = main([a.format(out=out) for a in argv])
            stdout = comparable(capsys.readouterr().out)
        except SystemExit as exc:
            # argparse's usage and help text are not a result block
            code, stdout = exc.code, None
            capsys.readouterr()
        payload = out.read_bytes() if out.exists() else None
        fresh_code, fresh_stdout, fresh_payload = fresh[tuple(argv)]
        assert code == fresh_code == expected_code, argv
        if stdout is not None:
            assert stdout == fresh_stdout, argv
        assert payload == fresh_payload, argv


def write_semicircular(path, variances):
    path.write_text(json.dumps(
        {"n": len(variances), "trace": {"variant": "semicircular", "variances": variances}}
    ))
    return str(path)


def test_calls_on_one_spec_text_share_one_parsed_spec(tmp_path, capsys, monkeypatch):
    traced = []
    original = ncfree.cli.relation_kernel

    def recording(trace, degree):
        traced.append(trace)
        return original(trace, degree)

    monkeypatch.setattr(ncfree.cli, "relation_kernel", recording)
    spec = write_semicircular(tmp_path / "spec.json", ["1", "1/2"])
    for degree in ("1", "2"):
        assert main(["relations", "--spec", spec, "--degree", degree]) == 0
    capsys.readouterr()
    assert len(traced) == 2 and traced[0] is traced[1]
    assert list(ncfree.cli._traces.values()) == [traced[0]]


def test_an_edited_spec_file_is_parsed_again(tmp_path, capsys):
    path = tmp_path / "spec.json"
    argv = ["verify-conjugate", "--spec", str(path), "--xi", "1 * Z 1;1 * Z 2"]
    write_semicircular(path, ["1", "1"])
    assert main(argv) == 0
    capsys.readouterr()
    # xi = Z_j is conjugate only at variance 1
    write_semicircular(path, ["2", "2"])
    assert main(argv) == 1
    warm = comparable(capsys.readouterr().out)
    first, second = ncfree.cli._traces.values()
    assert first.spec != second.spec
    ncfree.cli._traces.clear()
    assert main(argv) == 1
    assert comparable(capsys.readouterr().out) == warm


def test_a_bad_spec_fails_on_every_call_and_is_not_kept(tmp_path, capsys):
    spec = write_semicircular(tmp_path / "bad.json", ["1", "1/0"])
    for _ in range(2):
        code, err = run_for_error(capsys, ["relations", "--spec", spec, "--degree", "1"])
        assert (code, err) == (2, "error: bad trace section: number '1/0' has a zero denominator")
    assert ncfree.cli._traces == {}


def test_a_bad_degree_bound_fails_every_command_and_is_not_kept(tmp_path, capsys):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({
        "n": 1,
        "trace": {"variant": "semicircular", "variances": ["1"]},
        "ensemble": {"dim": 4, "samples": 1, "matrices": [{"kind": "gue"}]},
        "degree_bound": "12",
    }))
    message = "error: degree_bound must be a non-negative integer, got '12'"
    for argv in (["verify-conjugate", "--xi", "1 * Z 1"], ["spectrum", "--poly", "1 * Z 1"]) * 2:
        assert run_for_error(capsys, argv + ["--spec", str(path)]) == (2, message)
    assert ncfree.cli._traces == {}


def test_the_parsed_spec_store_is_bounded(tmp_path, capsys):
    bound = ncfree.cli.SHARED_DISTRIBUTIONS
    specs = [
        write_semicircular(tmp_path / f"spec-{k}.json", [str(k + 1)]) for k in range(bound + 3)
    ]
    digests = []
    for spec in specs + specs[:1]:
        assert main(["relations", "--spec", spec, "--degree", "1"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["metadata"]["spec_digest"])
        assert len(ncfree.cli._traces) <= bound
    # the oldest texts went first, and the first one was parsed again
    assert list(ncfree.cli._traces) == digests[-bound:]


def test_report_after_verify_conjugate_sums_no_left_side_again(tmp_path, capsys, monkeypatch):
    spec = write_semicircular(tmp_path / "spec.json", ["1", "1"])
    argv = ["--spec", spec, "--xi", "1 * Z 1;1 * Z 2", "--degree", "4"]
    assert main(["verify-conjugate", *argv]) == 0
    splits = []
    original = ncfree.conjugate._left_side

    def counting(word, *args):
        splits.append(word)
        return original(word, *args)

    monkeypatch.setattr(ncfree.conjugate, "_left_side", counting)
    assert main(["report", *argv]) == 0
    capsys.readouterr()
    assert splits == []
    [trace] = ncfree.cli._traces.values()
    assert trace.left_sides[1][(1, 1, 1)] == ncfree.Scalar(2)


def test_an_explicit_table_file_reuses_its_functional(bernoulli_cli_spec, capsys, monkeypatch):
    built = []
    original = ncfree.cli.TraceFunctional

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(ncfree.cli, "TraceFunctional", recording)
    argv = ["verify-conjugate", "--spec", bernoulli_cli_spec, "--xi", "1 * Z 1", "--degree", "3"]
    relations = ["relations", "--spec", bernoulli_cli_spec, "--degree", "2"]
    codes = [main(argv), main(argv), main(relations)]
    capsys.readouterr()
    # the Bernoulli table has the relation Z^2 = 1, and xi = Z fails at Z Z
    assert codes == [1, 1, 1]
    assert len(built) == 1 and not built[0].free
    assert list(ncfree.cli._traces.values()) == built
    assert built[0].left_sides


# -- word length, checked once at the boundary ---------------------------------------

BENCH_SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"
CATALAN_TEXT = ["1", "2", "5", "14", "42", "132", "429", "1430"]


def run_for_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.strip()


@pytest.mark.parametrize(
    "spec, degree, message",
    [
        # 2^41 words would be listed before the first lookup
        ("semicircular-2", 40, "word length 13 exceeds degree bound 12"),
        ("semicircular-2", 7, "word length 13 exceeds degree bound 12"),
        ("bernoulli", 3, "word length 5 exceeds explicit table degree 4"),
        ("free-poisson-2", 5, "word length 9 exceeds degree bound 8"),
    ],
    ids=["semicircular-2-deg40", "semicircular-2-deg7", "bernoulli-deg3", "free-poisson-2-deg5"],
)
def test_relations_past_the_limit_fail_before_any_word(capsys, spec, degree, message):
    argv = ["relations", "--spec", str(BENCH_SPECS / f"{spec}.json"), "--degree", str(degree)]
    assert run_for_error(capsys, argv) == (2, f"error: {message}")


@pytest.mark.parametrize("seed", range(1, 7))
def test_duality_past_the_table_fails_on_every_seed(capsys, seed):
    argv = ["duality", "--spec", str(BENCH_SPECS / "bernoulli.json"), "--trials", "2",
            "--degree", "3", "--seed", str(seed)]
    expected = "error: word length 5 exceeds explicit table degree 4"
    assert run_for_error(capsys, argv) == (2, expected)


@pytest.mark.parametrize(
    "moments, xi, degree, message",
    [
        # an explicit table of degree 4, as bernoulli_cli_spec
        (None, "1 * Z 1", 4, "word length 5 exceeds explicit table degree 4"),
        (None, "1 * Z 1", 6, "word length 5 exceeds explicit table degree 4"),
        (None, "0", 6, "word length 5 exceeds explicit table degree 4"),
        # a free family whose first letter has four moments
        ([CATALAN_TEXT[:4], CATALAN_TEXT[:6]], "1 * Z 1;1 * Z 2", 4,
         "word length 5 exceeds supplied moment depth 4"),
        ([CATALAN_TEXT[:4], CATALAN_TEXT[:6]], "1 * Z 1;1 * Z 2", 7,
         "word length 5 exceeds supplied moment depth 4"),
        # a symmetric first letter: odd words are skipped, the error stays
        ([["0", "1"] * 3, CATALAN_TEXT[:8]], "1 * Z 1;1 * Z 2", 6,
         "word length 7 exceeds supplied moment depth 6"),
        ([["0", "1"] * 3, CATALAN_TEXT[:8]], "1 * Z 1 + 1 * Z 1 2;1 * Z 2", 5,
         "word length 7 exceeds supplied moment depth 6"),
        ([["0", "1"] * 3, CATALAN_TEXT[:8]], "0;0", 8,
         "word length 7 exceeds supplied moment depth 6"),
    ],
    ids=["table-deg4", "table-deg6", "table-zero-xi", "short-depth-deg4", "short-depth-deg7",
         "symmetric-deg6", "symmetric-mixed-parity-deg5", "symmetric-zero-xi"],
)
def test_verify_conjugate_past_the_limit_keeps_its_message(
    bernoulli_cli_spec, tmp_path, capsys, moments, xi, degree, message
):
    spec = bernoulli_cli_spec
    if moments is not None:
        spec = tmp_path / "free.json"
        spec.write_text(json.dumps({"n": 2, "trace": {"variant": "free", "moments": moments}}))
    argv = ["verify-conjugate", "--spec", str(spec), "--xi", xi, "--degree", str(degree)]
    assert run_for_error(capsys, argv) == (2, f"error: {message}")


def test_a_700_letter_xi_is_verified(tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({
        "n": 1,
        "degree_bound": 700,
        "trace": {"variant": "semicircular", "variances": ["1"]},
    }))
    xi = "1 * Z" + " 1" * 700
    argv = ["verify-conjugate", "--spec", str(spec), "--xi", xi, "--degree", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    # at the empty word: (tau (x) tau)(d_1 1) = 0, but tau(xi_1) = Catalan(350)
    failures = json.loads(captured.out)["result"]["failures"]
    assert failures == [
        {"j": 1, "word": [], "lhs": "0", "rhs": str(math.comb(700, 350) // 351)}
    ]
