import copy
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcqp
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
from qcqp.core import QcqpProblem, QuadraticForm, Sense, assess
from qcqp.errors import NumericalFailureError, ParseError
from qcqp.generators import brute_force, gen_boolean_ls, gen_partitioning
from qcqp.improve import improve_sequence, round_sign
from qcqp.suggest import suggest_sdr


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
    assert np.array_equal(q.objective.q_vec, p.objective.q_vec)
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


@st.composite
def problem_documents(draw):
    """A problem file on n <= 10 variables whose P lists repeat cells, name cells below the
    diagonal, hold -0.0 and write some indices as integral floats."""
    n = draw(st.integers(1, 10))
    index = st.integers(0, n - 1).flatmap(lambda i: st.sampled_from([i, float(i)]))
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0, 1e-300]), st.integers(-3, 3))
    triplets = st.lists(st.tuples(index, index, value).map(list), max_size=12)

    def form():
        P = draw(triplets)
        entry = {"P": P + draw(st.lists(st.sampled_from(P), max_size=4)) if P else P}
        if draw(st.booleans()):
            entry["q"] = draw(st.lists(value, min_size=n, max_size=n))
        if draw(st.booleans()):
            entry["r"] = draw(value)
        return entry

    constraints = [{**form(), "sense": draw(st.sampled_from(["le", "eq"]))} for _ in range(draw(st.integers(0, 5)))]
    return {"n": n, "objective": form(), "constraints": constraints}


def _dense_reference(n, triplets):
    """P of create's rule, one triplet at a time: summed in input order on the upper cell, then mirrored."""
    P = np.zeros((n, n))
    for i, j, v in triplets:
        a, b = sorted((int(i), int(j)))
        P[a, b] += v
    return P + np.triu(P, 1).T + 0.0


@given(problem_documents())
def test_problem_from_json_builds_each_form_as_create_does(doc):
    problem = problem_from_json(json.loads(json.dumps(doc)))
    n, entries = doc["n"], [doc["objective"]] + doc["constraints"]
    forms = [problem.objective] + [c.form for c in problem.constraints]
    assert len(forms) == len(entries)
    for form, entry in zip(forms, entries):
        alone = QuadraticForm.create(n, entry["P"], entry.get("q"), entry.get("r", 0.0))
        assert form.dense_p.tobytes() == alone.dense_p.tobytes() == _dense_reference(n, entry["P"]).tobytes()
        assert form.q_vec.tobytes() == alone.q_vec.tobytes() and form.r.hex() == alone.r.hex()
        assert not (form.dense_p.flags.writeable or form.q_vec.flags.writeable)


def test_problem_from_json_names_the_first_bad_entry_in_file_order():
    ok = {"P": [[0, 0, 1.0]]}
    bad_index, bad_sense, short_q = {**ok, "P": [[0, 2, 1.0]]}, {**ok, "sense": "lt"}, {**ok, "q": [1.0]}
    overflow = {**ok, "P": [[1, 1, 1e308], [1, 1, 1e308]]}
    cases = [
        # a bad index before a bad sense, and a bad sense before a bad index
        ([bad_index, bad_sense], "constraint 0: triplet index (0,2) is not an integer in [0, 2)"),
        ([ok, bad_sense, bad_index], "constraint 1: sense must be 'le' or 'eq'"),
        # a sum that overflows before a q of the wrong length, and that q before an r beyond the float range
        ([overflow, short_q], "constraint 0: quadratic form has non-finite coefficients"),
        ([ok, short_q, {**ok, "r": 10**400}], "constraint 1: q has shape (1,), expected (2,)"),
    ]
    for constraints, message in cases:
        with pytest.raises(ParseError) as exc, np.errstate(over="ignore"):
            problem_from_json({"n": 2, "objective": ok, "constraints": constraints})
        assert str(exc.value) == message


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
    assert set(payload) == {"bound", "valid"}
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
    # a missing problem file, a directory as the problem file, and an --out
    # that cannot be written: each is bad input, and no file is written
    missing, unwritable = tmp_path / "missing.json", tmp_path / "no-such-dir" / "r.json"
    for args in (
        ["solve", str(missing)],
        ["bound", str(missing)],
        ["brute", str(tmp_path)],
        ["solve", str(tmp_path)],
        ["solve", str(p), "--out", str(unwritable)],
        ["bound", str(p), "--out", str(tmp_path)],
        ["brute", str(p), "--out", str(unwritable)],
        ["generate", "--family", "boolean-ls", "--n", "3", "--m", "4", "--out", str(unwritable)],
    ):
        before = sorted(tmp_path.rglob("*"))
        assert main(args) == 2, args
        assert sorted(tmp_path.rglob("*")) == before
        assert "cannot" in capsys.readouterr().err
    # brute refuses an instance by its size before it enumerates: bad input, not a failure
    too_many = tmp_path / "n30.json"
    save_problem(gen_boolean_ls(4, 30, seed=0), too_many)
    many_reals = tmp_path / "reals16.json"
    save_problem(QcqpProblem.create(QuadraticForm.from_dense(np.eye(16))), many_reals)
    for args in (["brute", str(too_many)], ["brute", str(many_reals), "--mode", "grid"]):
        assert main(args) == 2, args
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [0, 10**9])
def test_cli_rejects_a_dimension_below_one_or_too_large_to_allocate(tmp_path, capsys, n):
    # n = 0 reached the methods and failed there with an IndexError; for
    # n = 10**9 the n x n matrix cannot be allocated, which numpy reports at
    # once without touching memory
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": n, "objective": {}}))
    for args in (
        ["solve", str(path), "--improve", "admm"],
        ["solve", str(path), "--improve", "ccp"],
        ["solve", str(path), "--suggest", "spectral"],
        ["bound", str(path)],
        ["brute", str(path)],
    ):
        assert main(args) == 2, args
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("family", ["boolean-ls", "partitioning", "maxcut", "maxbisection", "maxclique", "beamforming"])
@pytest.mark.parametrize("n", [0, -2])
def test_cli_generate_rejects_a_dimension_below_one(tmp_path, capsys, family, n):
    # n = 0 wrote a file that solve, bound and brute all reject, and n = -2
    # failed inside numpy; no file is written
    out = tmp_path / "p.json"
    assert main(["generate", "--family", family, "--n", str(n), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"
    assert not out.exists()


def _strict_json(text: str):
    """json.loads that refuses the non-standard tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_cli_writes_non_finite_numbers_as_strict_json(tmp_path, capsys):
    def problem_file(name, objective, constraints=()):
        path = tmp_path / name
        path.write_text(json.dumps({"n": 1, "objective": objective, "constraints": list(constraints)}))
        return str(path)

    unbounded = problem_file("unbounded.json", {"P": [[0, 0, -1.0]]})  # min -x^2
    empty = problem_file("empty.json", {"P": [[0, 0, 1.0]]}, [{"P": [[0, 0, 1.0]], "r": 1.0}])  # x^2 <= -1
    infeasible = problem_file(
        "infeasible.json",
        {"P": [[0, 0, 1.0]]},
        [{"P": [[0, 0, 1.0]], "r": -1.0, "sense": "eq"}, {"q": [-1.0], "r": 2.0}],  # x = +-1 and x >= 2
    )
    huge = problem_file("huge.json", {"P": [[0, 0, 1e308]]})  # overflows at |x| > 1
    for args, want in (
        (["bound", unbounded, "--method", "spectral"], {"bound": "-inf"}),
        (["bound", unbounded, "--method", "sdr"], {"bound": "-inf"}),
        (["bound", empty, "--method", "spectral"], {"bound": "inf"}),
        (["bound", empty, "--method", "sdr"], {"bound": "inf"}),
        (["brute", infeasible], {"objective": "inf", "x": None}),
    ):
        assert main(args) == 0, args
        payload = _strict_json(capsys.readouterr().out)
        assert {k: payload[k] for k in want} == want, args
    assert main(["solve", huge, "--seed", "3"]) == 0
    best = _strict_json(capsys.readouterr().out)["best"]
    assert best["objective"] == best["violation"] == "inf"


def test_solve_of_an_overflowing_objective_prints_no_warning(tmp_path, capsys):
    # f = 1e308 x^2 overflows at |x| > 1; its value becomes inf by design,
    # so numpy's overflow warning in the evaluation is noise on stderr
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "objective": {"P": [[0, 0, 1e308]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], ["--improve", "sign,cd"], ["--suggest", "sdr", "--improve", "admm,cd"]):
            assert main(["solve", str(path), "--seed", "3", *extra]) == 0, extra
            _strict_json(capsys.readouterr().out)


def test_spectral_of_a_row_whose_scale_squared_overflows_exits_without_a_traceback(tmp_path, capsys):
    # x^2 - 1e308 = 0 with objective x: the one-constraint solver's null-space
    # threshold squares a scale near 1e308, which overflows to inf
    path = tmp_path / "overflow.json"
    row = {"P": [[0, 0, 1.0]], "r": -1e308, "sense": "eq"}
    path.write_text(json.dumps({"n": 1, "objective": {"q": [1.0]}, "constraints": [row]}))
    assert main(["bound", str(path), "--method", "spectral"]) == 0
    assert _strict_json(capsys.readouterr().out) == {"bound": "-inf", "valid": True}
    assert main(["solve", str(path), "--suggest", "spectral"]) == 1
    assert capsys.readouterr().err == "solver failure: the spectral relaxation has no minimizer (bound -inf)\n"


@pytest.mark.parametrize(
    "flag, value, suggest",
    [("--parallel", "0", "random"), ("--parallel", "-1", "random"), ("--candidates", "0", "spectral")],
)
def test_cli_solve_rejects_counts_below_one(tmp_path, capsys, flag, value, suggest):
    p = tmp_path / "p.json"
    save_problem(small_problem(), p)
    out = tmp_path / "r.json"
    args = ["solve", str(p), "--suggest", suggest, "--improve", "cd", flag, value, "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("name", ["candidates", "parallel"])
def test_pipeline_config_rejects_counts_below_one(name):
    # library callers of run_pipeline get the same check as qcqp solve
    with pytest.raises(ValueError, match=name):
        PipelineConfig(**{name: 0})


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


@pytest.mark.parametrize(
    "where, field, token",
    [
        ("constraint", "r", "[1]"),
        ("top", "n", "null"),
        ("top", "n", "1e400"),
        ("top", "constraints", "5"),
        ("constraint", "q", '{"a": 1}'),
        # booleans, strings and fractional indices are not read as numbers,
        # and an integer beyond the float range is bad input, not a crash
        ("triplet", 0, "0.7"),
        ("triplet", 0, "true"),
        ("triplet", 1, '"1"'),
        ("triplet", 2, '"2.5"'),
        ("constraint", "r", '"3"'),
        ("constraint", "q", '["1", "2", "3"]'),
        ("constraint", "q", "[true, false, true]"),
        ("constraint", "q", "[1e400, 0, 0]"),
        ("constraint", "P", "[[0, 0]]"),
        pytest.param("constraint", "r", "1" + "0" * 400, id="constraint-r-10**400"),
    ],
)
def test_cli_solve_rejects_malformed_fields(tmp_path, capsys, where, field, token):
    data = problem_to_json(small_problem())
    target = {"top": data, "constraint": data["constraints"][0], "triplet": data["objective"]["P"][0]}[where]
    target[field] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace('"@"', token))
    with pytest.raises(ParseError):
        load_problem(path)
    assert main(["solve", str(path), "--improve", "cd", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _json_paths(node, path=()):
    """The path of node and of every value inside it: dict keys and list indices."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(-4.0, 4.0),
    st.text(max_size=3),
    st.sampled_from(["le", "eq", "1", "0.5", "true"]),
)
# strings, booleans, fractions, null and nested lists; n takes no value that
# would allocate a large problem
_SMALL_JSON = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_ANY_JSON = st.one_of(_SMALL_JSON, st.just(10**400), st.just(1e300))


@given(st.data())
def test_cli_solve_exits_0_or_2_when_any_value_of_a_problem_file_is_swapped(data):
    doc = problem_to_json(small_problem())
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    value = data.draw(_SMALL_JSON if path[:1] == ("n",) else _ANY_JSON)
    if path:
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "p.json"), os.path.join(tmp, "r.json")
        with open(problem, "w") as fh:
            json.dump(doc, fh)
        assert main(["solve", problem, "--seed", "0", "--out", out]) in (0, 2)


def test_python_m_qcqp_runs_the_command_line_without_a_runpy_warning(tmp_path):
    src = str(Path(qcqp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qcqp", "solve", "missing.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_run_pipeline_starts_no_thread_at_any_parallel():
    # --parallel is accepted for compatibility: candidates run one after another
    p = small_problem()
    config = PipelineConfig(suggest="random", improve=("sign", "cd"), candidates=8, seed=2, parallel=4)
    start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=start) as starts:
        report = run_pipeline(p, config)
    assert starts.call_count == 0
    assert report["config"]["parallel"] == 4
    serial = run_pipeline(p, PipelineConfig(suggest="random", improve=("sign", "cd"), candidates=8, seed=2))
    assert canonical_report_json(report) == canonical_report_json(serial).replace('"parallel": 1', '"parallel": 4')


def test_cli_byte_identical_reports(tmp_path):
    prob_path = tmp_path / "prob.json"
    save_problem(gen_boolean_ls(4, 3, seed=0), prob_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["solve", str(prob_path), "--improve", "cd", "--candidates", "3", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("s", [1.0, 1e12, 1e50, 1e154, 1e155, 1e200, 1e300])
def test_cli_spectral_bound_of_a_scaled_instance_is_valid_or_flagged_or_fails(tmp_path, capsys, s):
    # min s (x1 + x2) s.t. x1^2 + x2^2 = 1 has optimum -sqrt(2) s; at s >= 1e155
    # the command printed {"bound": 0.0, "valid": true} with an overflow warning
    path = tmp_path / "scaled.json"
    row = {"P": [[0, 0, 1.0], [1, 1, 1.0]], "r": -1.0, "sense": "eq"}
    path.write_text(json.dumps({"n": 2, "objective": {"q": [s, s]}, "constraints": [row]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bound", str(path), "--method", "spectral"])
    out, err = capsys.readouterr()
    if code == 1:
        assert err.startswith("solver failure: ") and out == ""
        return
    assert code == 0
    res = _strict_json(out)
    assert res["valid"] is False or res["bound"] <= -(2.0**0.5) * s * (1.0 - 1e-12)


def test_problem_from_json_names_a_constraint_that_is_not_an_object():
    for entry in ([], [{"sense": "eq"}], None, "le", 3):
        with pytest.raises(ParseError) as exc:
            problem_from_json({"n": 1, "objective": {}, "constraints": [{}, entry]})
        assert str(exc.value) == "constraint 1: expected an object"


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# structural values: containers of the wrong kind, empty and null ones
_STRUCTURES = st.sampled_from([None, [], {}, [[]], [None], [{}], {"P": []}, {"n": 1}, [[0, 0]], [[0, 0, 1.0, 2.0]], "x", 0])


@given(st.data())
def test_cli_solve_exits_0_or_2_when_a_problem_file_is_edited_in_structure(data):
    # missing keys, extra keys, containers of the wrong type and null entries
    # anywhere in a problem file: the loader names the fault, never a traceback
    doc = problem_to_json(small_problem())
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        containers = [p for p in paths if isinstance(_at(doc, p), (dict, list))]
        edit = data.draw(st.sampled_from(["drop", "add", "replace"]))
        doc = copy.deepcopy(doc)
        if edit == "drop" and len(paths) > 1:  # an entry of a container is deleted
            path = data.draw(st.sampled_from(paths[1:]))
            del _at(doc, path[:-1])[path[-1]]
        elif edit == "add" and containers:  # a key "extra" or an item is added
            node = _at(doc, data.draw(st.sampled_from(containers)))
            value = data.draw(_STRUCTURES)
            if isinstance(node, dict):
                node["extra"] = value
            else:
                node.append(value)
        elif edit == "replace" and containers:  # a container becomes a structure of another kind
            path = data.draw(st.sampled_from(containers))
            value = data.draw(_STRUCTURES)
            if path:
                _at(doc, path[:-1])[path[-1]] = value
            else:
                doc = value
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "p.json"), os.path.join(tmp, "r.json")
        with open(problem, "w") as fh:
            json.dump(doc, fh)
        assert main(["solve", problem, "--seed", "0", "--out", out]) in (0, 2)


# -- one improve run per distinct point in a pipeline run --------------------


def _spy_on(monkeypatch, name, fail_on=None):
    """Replace METHODS[name] by a wrapper that records the bytes of each start point.

    It raises NumericalFailureError where the start point's bytes are fail_on.
    """
    method, starts = qcqp.improve.METHODS[name], []

    def spy(problem, x, **opts):
        starts.append(np.asarray(x).tobytes())
        if starts[-1] == fail_on:
            raise NumericalFailureError("forced")
        return method(problem, x, **opts)

    monkeypatch.setitem(qcqp.improve.METHODS, name, spy)
    return starts


def test_spectral_candidates_are_improved_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.json"
    save_problem(gen_boolean_ls(8, 6, seed=0), path)
    args = ["solve", str(path), "--suggest", "spectral", "--candidates", "5", "--improve", "sign,cd"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    signs, cds = _spy_on(monkeypatch, "sign"), _spy_on(monkeypatch, "cd")
    assert main(args) == 0
    assert capsys.readouterr().out == plain
    assert len(signs) == len(cds) == 1
    assert len(json.loads(plain)["candidates"]) == 5


def _sdr_case():
    """A boolean LS instance whose 6 SDR samples at seed 0 sign-round to 4 distinct points."""
    return gen_boolean_ls(12, 8, seed=0), PipelineConfig(suggest="sdr", improve=("sign", "cd"), candidates=6, seed=0)


def test_sdr_candidates_are_improved_once_per_distinct_point(monkeypatch):
    problem, config = _sdr_case()
    outcome = suggest_sdr(problem, config.candidates, rng_seed=config.seed)
    rounded = {round_sign(x).tobytes() for x in outcome.candidates}
    assert len(rounded) == 4  # two samples or more round to one point
    signs, cds = _spy_on(monkeypatch, "sign"), _spy_on(monkeypatch, "cd")
    report = run_pipeline(problem, config)
    assert len(signs) == 6 and sorted(cds) == sorted(rounded)
    # the report is the one built by improving each candidate on its own
    monkeypatch.undo()
    memo = {}
    for x0, entry in zip(outcome.candidates, report["candidates"]):
        shared = improve_sequence(problem, x0, ["sign", "cd"], {}, _memo=memo)
        alone = improve_sequence(problem, x0, ["sign", "cd"])
        assert (alone.assessment.violation, alone.assessment.objective) == (entry["violation"], entry["objective"])
        assert shared.x.tobytes() == alone.x.tobytes()
        assert np.array(shared.phase_trace).tobytes() == np.array(alone.phase_trace).tobytes()
        assert (shared.iterations, shared.converged, shared.method) == (alone.iterations, alone.converged, alone.method)
        assert shared.assessment == alone.assessment
    with mock.patch.object(qcqp.cli, "improve_sequence", lambda *args, _memo: improve_sequence(*args)):
        assert canonical_report_json(run_pipeline(problem, config)) == canonical_report_json(report)


def test_a_method_that_raises_raises_for_every_repeat_of_its_point(monkeypatch):
    problem, config = _sdr_case()
    outcome = suggest_sdr(problem, config.candidates, rng_seed=config.seed)
    rounded = [round_sign(x).tobytes() for x in outcome.candidates]
    repeated = max(rounded, key=rounded.count)
    assert rounded.count(repeated) >= 2
    cds = _spy_on(monkeypatch, "cd", fail_on=repeated)
    report = run_pipeline(problem, config)
    failed = [c["index"] for c in report["candidates"] if "error" in c]
    assert failed == [k for k, r in enumerate(rounded) if r == repeated]
    assert all(c["error"] == "forced" for c in report["candidates"] if "error" in c)
    assert cds.count(repeated) == rounded.count(repeated)  # not stored, so run again each time
    assert len(cds) == len(set(rounded)) + rounded.count(repeated) - 1
