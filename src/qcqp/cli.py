"""Problem file I/O, the Suggest-and-Improve pipeline runner, and the
command-line entry point.

Problem files are JSON: {"n": int, "objective": {"P": [[i, j, v], ...],
"q": [...], "r": float}, "constraints": [{"P": ..., "q": ..., "r": ...,
"sense": "le"|"eq"}, ...]} with 0-based upper-triangle triplets.  NaN,
Infinity and any other non-finite number are rejected with ParseError.

Reports are serialized canonically (sorted keys, timing excluded), so a
fixed problem, config, and seed produce byte-identical output; wall and CPU
times ride along in a separate non-canonical section.  Every command writes
strict JSON: a non-finite float in its output, such as the bound -inf of an
unbounded relaxation, is written as the string "inf", "-inf" or "nan".
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

# the benchmark's tracer patches assess by this name
from .core import Constraint, QcqpProblem, QuadraticForm, Sense, assess
from .errors import ParseError, QcqpError, TooLargeError
from .generators import (
    brute_force,
    gen_beamforming,
    gen_boolean_ls,
    gen_maxbisection,
    gen_maxclique,
    gen_maxcut,
    gen_partitioning,
)
from .improve import METHODS, improve_sequence
# the benchmark's tracer patches sdr_bound_cutting_plane by this name
from .relax import sdr_bound, sdr_bound_cutting_plane, spectral_bound
from .suggest import suggest_random, suggest_sdr, suggest_spectral


# -- problem files ----------------------------------------------------------


def _form_to_json(form: QuadraticForm) -> dict:
    return {
        "P": [[i, j, v] for i, j, v in form.triplets],
        "q": form.q_vec.tolist(),
        "r": form.r,
    }


def _check_numbers(values: list, where: str, what: str) -> None:
    """Raise ParseError unless every value is a JSON number, not a boolean or a string."""
    if not set(map(type, values)) <= {int, float}:  # json gives numbers exactly these types
        bad = next(v for v in values if type(v) is not int and type(v) is not float)
        raise ParseError(f"{where}: {what} must be a number, got {bad!r}")


def _form_fields(obj, where: str) -> tuple:
    """The (triplets, q, r) of a form's JSON object, checked to be lists of numbers and a number."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    P, q, r = obj.get("P", []), obj.get("q"), obj.get("r", 0.0)
    # set(map(...)) keeps these per-entry checks in C: P can hold n(n+1)/2 triplets
    if not isinstance(P, list) or not set(map(type, P)) <= {list} or not set(map(len, P)) <= {3}:
        raise ParseError(f"{where}: P must be a list of [i, j, value] triplets")
    _check_numbers(list(itertools.chain.from_iterable(P)), where, "each P entry")
    if q is not None and not isinstance(q, list):
        raise ParseError(f"{where}: q must be a list of numbers")
    _check_numbers(q or [], where, "each q entry")
    _check_numbers([r], where, "r")
    return P, q, r


# what QuadraticForm.create raises for a triplet index that is not an integer in
# [0, n), q of the wrong length, a non-finite number, an integer beyond the float
# range, or an n x n matrix too large to allocate
_FORM_ERRORS = (QcqpError, ValueError, OverflowError, MemoryError)


def problem_to_json(problem: QcqpProblem) -> dict:
    return {
        "n": problem.n,
        "objective": _form_to_json(problem.objective),
        "constraints": [
            {**_form_to_json(c.form), "sense": c.sense.value} for c in problem.constraints
        ],
    }


def problem_from_json(data) -> QcqpProblem:
    """The problem of a parsed problem file, or ParseError naming its first bad entry in file order.

    Each entry is checked first (a constraint that is not an object, a bad
    sense, P, q or r), then every form is built in the one pass of
    QuadraticForm._create_all.
    """
    if not isinstance(data, dict) or "n" not in data or "objective" not in data:
        raise ParseError("problem file must contain 'n' and 'objective'")
    n = data["n"]
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f"'n' must be an integer, got {n!r}")
    if n < 1:
        raise ParseError(f"'n' must be at least 1, got {n}")
    entries = data.get("constraints", [])
    if not isinstance(entries, list):
        raise ParseError("'constraints' must be a list")
    wheres = ["objective"] + [f"constraint {k}" for k in range(len(entries))]
    fields, senses = [], []
    try:
        fields.append(_form_fields(data["objective"], "objective"))
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ParseError(f"constraint {k}: expected an object")
            sense_str = entry.get("sense", "le")
            if sense_str not in ("le", "eq"):
                raise ParseError(f"constraint {k}: sense must be 'le' or 'eq'")
            fields.append(_form_fields(entry, wheres[k + 1]))
            senses.append(Sense(sense_str))
        forms = QuadraticForm._create_all(n, fields)
    except (ParseError,) + _FORM_ERRORS as exc:
        # report the first bad entry in file order, as building each form in
        # turn did: a form before the entry that failed its checks, or the
        # first form that fails create alone
        for where, part in zip(wheres, fields):
            try:
                QuadraticForm.create(n, *part)
            except _FORM_ERRORS as form_exc:
                raise ParseError(f"{where}: {form_exc}") from form_exc
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"problem: {exc}") from exc  # each form fits in memory, but not all at once
    return QcqpProblem.create(forms[0], [Constraint(f, s) for f, s in zip(forms[1:], senses)])


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} in problem file")


def load_problem(path) -> QcqpProblem:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except OSError as exc:  # missing, a directory, or unreadable
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    return problem_from_json(data)


def save_problem(problem: QcqpProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- pipeline ---------------------------------------------------------------


@dataclass
class PipelineConfig:
    suggest: str = "random"
    improve: tuple = ()
    improve_opts: dict = field(default_factory=dict)
    candidates: int = 1
    seed: int | None = None
    parallel: int = 1

    def __post_init__(self):
        for name in ("candidates", "parallel"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value} (qcqp solve --{name})")

    def to_json(self) -> dict:
        return {
            "suggest": self.suggest,
            "improve": list(self.improve),
            "improve_opts": {k: dict(v) for k, v in self.improve_opts.items()},
            "candidates": self.candidates,
            "seed": self.seed,
            "parallel": self.parallel,
        }


def _suggest(problem: QcqpProblem, config: PipelineConfig):
    if config.suggest == "random":
        return suggest_random(problem, config.candidates, rng_seed=config.seed)
    if config.suggest == "spectral":
        out = suggest_spectral(problem)
        # one deterministic candidate, replicated so each slot improves its own copy
        return replace(out, candidates=tuple(out.candidates[0].copy() for _ in range(config.candidates)))
    if config.suggest == "sdr":
        return suggest_sdr(problem, config.candidates, rng_seed=config.seed)
    raise ValueError(f"unknown suggest method {config.suggest!r}")


def run_pipeline(problem: QcqpProblem, config: PipelineConfig) -> dict:
    """Suggest candidates, improve each one in order, and report the best point.

    Per-candidate failures are recorded and skipped; the run fails only when
    every candidate fails.  Each improve method runs once per distinct point
    it meets in the run: a candidate, or an intermediate point, whose bytes
    it has already improved gets the stored report (improve_sequence's
    _memo), with the same result as running again.  Sign rounding often
    maps several SDR samples to one point, and the spectral suggestion is
    one point copied to every slot.

    config.parallel is accepted and echoed in the report, but it changes
    neither the results nor the schedule: the improve methods are Python
    loops that hold the GIL, so a thread pool only made them take turns,
    more slowly than one after another.  The report layout is stable and
    canonically serializable; timing lives under the separate "timing" key.

    An objective or a row that overflows is an expected outcome, not a
    fault: its value becomes inf, and the point counts as infinitely
    violated.  So numpy does not warn about overflow inside the pipeline.
    """
    with np.errstate(over="ignore"):
        return _run_pipeline(problem, config)


def _run_pipeline(problem: QcqpProblem, config: PipelineConfig) -> dict:
    t_wall = time.perf_counter()
    t_cpu = time.process_time()
    outcome = _suggest(problem, config)

    per_candidate = []
    best = None  # (assessment tuple, index, x, assessment)
    memo = {}  # improve_sequence's reports by (method, start point), for this run
    for idx, x0 in enumerate(outcome.candidates):
        try:
            rep = improve_sequence(problem, x0, list(config.improve), dict(config.improve_opts), _memo=memo)
        except QcqpError as exc:
            per_candidate.append({"index": idx, "error": str(exc)})
            continue
        a = rep.assessment
        per_candidate.append(
            {
                "index": idx,
                "violation": a.violation,
                "objective": a.objective,
                "iterations": rep.iterations,
                "converged": rep.converged,
                "method": rep.method,
            }
        )
        key = (a.violation, a.objective, idx)
        if best is None or key < best[0]:
            best = (key, idx, rep.x, a)
    if best is None:
        raise QcqpError("all candidates failed")

    _, best_idx, best_x, best_a = best
    bound_info = None
    if outcome.bound is not None:
        b = outcome.bound
        bound_info = {
            "bound": b.bound,
            "valid": b.valid,
            "converged": b.converged,
        }
        if b.valid and best_a.violation <= 1e-6 and np.isfinite(b.bound):
            bound_info["gap"] = best_a.objective - b.bound
    report = {
        "n": problem.n,
        "m": problem.m,
        "config": config.to_json(),
        "best": {
            "index": best_idx,
            "x": [float(v) for v in best_x],
            "violation": best_a.violation,
            "objective": best_a.objective,
        },
        "bound": bound_info,
        "candidates": per_candidate,
        "timing": {
            "wall_seconds": time.perf_counter() - t_wall,
            "cpu_seconds": time.process_time() - t_cpu,
        },
    }
    return report


def canonical_report_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, timing stripped."""
    return _dumps({k: v for k, v in report.items() if k != "timing"})


def _dumps(payload) -> str:
    """Strict JSON with sorted keys, each non-finite float written as "inf", "-inf" or "nan"."""
    return json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False)


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


# -- commands ---------------------------------------------------------------


def _emit(payload: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(payload)
                if not payload.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:  # a missing directory, a directory, or not writable
            raise ParseError(f"{out_path}: cannot write: {exc.strerror}") from exc
    else:
        print(payload)


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    improve = [s for s in (args.improve or "").split(",") if s]
    for name in improve:
        if name not in METHODS:
            raise ParseError(f"unknown improve method {name!r}")
    config = PipelineConfig(
        suggest=args.suggest,
        improve=tuple(improve),
        candidates=args.candidates,
        seed=args.seed,
        parallel=args.parallel,
    )
    report = run_pipeline(problem, config)
    _emit(canonical_report_json(report), args.out)
    return 0


def cmd_bound(args) -> int:
    problem = load_problem(args.problem)
    res = (spectral_bound if args.method == "spectral" else sdr_bound)(problem)
    _emit(_dumps({"bound": res.bound, "valid": res.valid}), args.out)
    return 0


def cmd_generate(args) -> int:
    fam = args.family
    if args.n < 1:
        raise ParseError(f"--n must be at least 1, got {args.n}")
    if fam == "boolean-ls":
        problem = gen_boolean_ls(args.m, args.n, args.seed)
    elif fam in ("partitioning", "maxcut", "maxbisection"):
        rng = np.random.default_rng(args.seed)
        W = rng.uniform(0.0, 1.0, size=(args.n, args.n))
        W = np.triu(W, 1)
        W = W + W.T
        gen = {"partitioning": gen_partitioning, "maxcut": gen_maxcut, "maxbisection": gen_maxbisection}[fam]
        problem = gen(W)
    elif fam == "maxclique":
        rng = np.random.default_rng(args.seed)
        A = (rng.uniform(size=(args.n, args.n)) < 0.5).astype(int)
        A = np.triu(A, 1)
        A = A + A.T + np.eye(args.n, dtype=int)
        problem = gen_maxclique(A)
    elif fam == "beamforming":
        problem = gen_beamforming(args.n, args.m, args.l, args.tau, args.eta, args.seed)
    else:
        raise ParseError(f"unknown family {fam!r}")
    _emit(_dumps(problem_to_json(problem)), args.out)
    return 0


def cmd_brute(args) -> int:
    problem = load_problem(args.problem)
    x, f = brute_force(problem, mode=args.mode)
    payload = {
        "x": None if x is None else [float(v) for v in x],
        "objective": f,
    }
    _emit(_dumps(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qcqp", description="Heuristics and bounds for nonconvex QCQPs")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the suggest-and-improve pipeline")
    ps.add_argument("problem")
    ps.add_argument("--suggest", choices=["random", "spectral", "sdr"], default="random")
    ps.add_argument("--improve", default="", help="comma-separated method list, e.g. cd,admm")
    ps.add_argument("--candidates", type=int, default=1)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument(
        "--parallel", type=int, default=1, help="accepted for compatibility; candidates run one after another"
    )
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_solve)

    pb = sub.add_parser("bound", help="compute a lower bound")
    pb.add_argument("problem")
    pb.add_argument("--method", choices=["spectral", "sdr"], default="spectral")
    pb.add_argument("--out", default=None)
    pb.set_defaults(fn=cmd_bound)

    pg = sub.add_parser("generate", help="emit a reference instance")
    pg.add_argument("--family", required=True,
                    choices=["boolean-ls", "partitioning", "maxcut", "maxbisection", "maxclique", "beamforming"])
    pg.add_argument("--n", type=int, default=10)
    pg.add_argument("--m", type=int, default=10)
    pg.add_argument("--l", type=int, default=3)
    pg.add_argument("--tau", type=float, default=20.0)
    pg.add_argument("--eta", type=float, default=2.0)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=cmd_generate)

    pr = sub.add_parser("brute", help="exhaustive oracle for small instances")
    pr.add_argument("problem")
    pr.add_argument("--mode", choices=["boolean", "grid"], default="boolean")
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=cmd_brute)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    # TooLargeError: brute refuses an instance by its size before enumerating
    except (ParseError, TooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QcqpError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
