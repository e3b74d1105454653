import json

import numpy as np
import pytest

from qcqp.cli import (
    PipelineConfig,
    canonical_report_json,
    load_problem,
    main,
    problem_from_json,
    problem_to_json,
    run_pipeline,
    save_problem,
)
from qcqp.core import Sense, assess
from qcqp.errors import ParseError
from qcqp.generators import brute_force, gen_boolean_ls, gen_partitioning


def small_problem():
    W = np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 0.2], [-0.5, 0.2, 0.0]])
    return gen_partitioning(W)


def test_problem_json_round_trip(tmp_path):
    p = gen_boolean_ls(5, 4, seed=0)
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    assert q.n == p.n and q.m == p.m
    assert q.objective.triplets == p.objective.triplets
    assert q.objective.q == p.objective.q
    for a, b in zip(q.constraints, p.constraints):
        assert a.sense is b.sense
        assert a.form.triplets == b.form.triplets


def test_problem_from_json_errors():
    with pytest.raises(ParseError):
        problem_from_json([])
    with pytest.raises(ParseError):
        problem_from_json({"n": 2})
    with pytest.raises(ParseError):
        problem_from_json({"n": 2, "objective": {"P": [[0, 5, 1.0]]}})
    with pytest.raises(ParseError):
        problem_from_json({"n": 2, "objective": {"P": [[float("inf"), 0, 1.0]]}})
    with pytest.raises(ParseError):
        problem_from_json(
            {"n": 1, "objective": {}, "constraints": [{"sense": "lt"}]}
        )


def test_load_problem_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_problem(path)


def test_run_pipeline_report_shape():
    p = small_problem()
    config = PipelineConfig(suggest="random", improve=("sign", "cd"), candidates=4, seed=3)
    report = run_pipeline(p, config)
    assert report["n"] == 3 and report["m"] == 3
    assert len(report["candidates"]) == 4
    best = report["best"]
    assert best["violation"] == 0.0
    # best is lexicographically <= every candidate
    for c in report["candidates"]:
        assert (best["violation"], best["objective"]) <= (c["violation"], c["objective"])
    assert "wall_seconds" in report["timing"]


def test_run_pipeline_spectral_bound_and_gap():
    p = small_problem()
    config = PipelineConfig(suggest="spectral", improve=("cd",), candidates=2, seed=0)
    report = run_pipeline(p, config)
    assert report["bound"] is not None
    assert report["bound"]["valid"]
    assert report["bound"]["bound"] <= report["best"]["objective"] + 1e-9
    assert report["bound"]["gap"] >= -1e-9


def test_run_pipeline_no_improve_echoes_candidate():
    p = small_problem()
    config = PipelineConfig(suggest="random", improve=(), candidates=1, seed=5)
    report = run_pipeline(p, config)
    from qcqp.suggest import suggest_random

    x = suggest_random(p, 1, rng_seed=5).candidates[0]
    assert np.allclose(report["best"]["x"], x)
    a = assess(p, x)
    assert report["best"]["violation"] == pytest.approx(a.violation)


def test_canonical_report_deterministic():
    p = small_problem()
    config = PipelineConfig(suggest="random", improve=("sign", "cd"), candidates=3, seed=11)
    r1 = canonical_report_json(run_pipeline(p, config))
    r2 = canonical_report_json(run_pipeline(p, config))
    assert r1 == r2
    assert "timing" not in json.loads(r1)


def test_parallel_same_best_point():
    p = small_problem()
    serial = PipelineConfig(suggest="random", improve=("sign",), candidates=8, seed=2, parallel=1)
    threaded = PipelineConfig(suggest="random", improve=("sign",), candidates=8, seed=2, parallel=4)
    r1 = run_pipeline(p, serial)
    r2 = run_pipeline(p, threaded)
    assert r1["best"]["x"] == r2["best"]["x"]
    assert r1["best"]["index"] == r2["best"]["index"]


def test_cli_generate_solve_brute(tmp_path, capsys):
    prob_path = tmp_path / "prob.json"
    rc = main(
        [
            "generate",
            "--family",
            "boolean-ls",
            "--n",
            "6",
            "--m",
            "8",
            "--seed",
            "1",
            "--out",
            str(prob_path),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "solve",
            str(prob_path),
            "--suggest",
            "random",
            "--improve",
            "sign,cd",
            "--candidates",
            "4",
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["best"]["violation"] == 0.0
    rc = main(["brute", str(prob_path)])
    assert rc == 0
    brute = json.loads(capsys.readouterr().out)
    assert brute["objective"] <= solved["best"]["objective"] + 1e-9


def test_cli_bound_spectral(tmp_path, capsys):
    p = small_problem()
    path = tmp_path / "part.json"
    save_problem(p, path)
    rc = main(["bound", str(path), "--method", "spectral"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    W = np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 0.2], [-0.5, 0.2, 0.0]])
    assert payload["bound"] == pytest.approx(-3.0 * np.linalg.eigvalsh(W)[-1], rel=1e-7)


def test_cli_bound_sdr(tmp_path, capsys):
    # the 3-node partitioning instance of tests/test_suggest.py; optimum -2.4
    W = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, -0.3], [0.5, -0.3, 0.0]])
    p = gen_partitioning(W)
    path = tmp_path / "part.json"
    save_problem(p, path)
    assert main(["bound", str(path), "--method", "spectral"]) == 0
    spectral = json.loads(capsys.readouterr().out)["bound"]
    assert main(["bound", str(path), "--method", "sdr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _, fstar = brute_force(p)
    assert payload["valid"] is True
    assert payload["trace"] == [payload["bound"]]
    assert spectral <= payload["bound"] <= fstar


def test_cli_exit_codes(tmp_path, capsys):
    # usage error
    assert main(["solve"]) == 2
    capsys.readouterr()
    # unknown improve method
    p = tmp_path / "p.json"
    save_problem(small_problem(), p)
    assert main(["solve", str(p), "--improve", "bogus"]) == 2
    # unreadable problem file
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["solve", str(bad)]) == 2


@pytest.mark.parametrize(
    "field, token",
    [("r", "NaN"), ("q", "[0.0, Infinity, 0.0]"), ("r", "1e999")],
)
def test_cli_solve_rejects_nonfinite_numbers(tmp_path, field, token):
    data = problem_to_json(small_problem())
    data["constraints"][0][field] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace('"@"', token))
    with pytest.raises(ParseError):
        load_problem(path)
    assert main(["solve", str(path), "--improve", "cd", "--seed", "0"]) == 2


def test_cli_byte_identical_reports(tmp_path):
    prob_path = tmp_path / "prob.json"
    save_problem(gen_boolean_ls(4, 3, seed=0), prob_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["solve", str(prob_path), "--improve", "cd", "--candidates", "3", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
