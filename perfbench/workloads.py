"""The benchmark workloads: their inputs, operations and checks.

A workload turns a run seed into a fixed list of operations, one per
instance.  A run repeats that list in whole rounds, so every run attempts
the same operations in the same proportions.  An operation is what
`qcqp solve` does: load_problem, run_pipeline, canonical_report_json.  The
program is reached only through module attributes (qcqp.cli.run_pipeline,
...), so the traced run sees every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import qcqp.cli

from . import checks
from .inputs import instance_rng, make_beam, make_boolls, write_problem


@dataclass
class Operation:
    run: Callable[[], str]  # the timed call; returns the canonical report
    check: Callable[[str], list]  # problems found in a report
    gap: Callable[[str], float]  # gap_ratio of a report, >= 1


def _pipeline(path: str, config: qcqp.cli.PipelineConfig) -> Callable[[], str]:
    def run() -> str:
        problem = qcqp.cli.load_problem(path)
        report = qcqp.cli.run_pipeline(problem, config)
        return qcqp.cli.canonical_report_json(report)

    return run


@dataclass(frozen=True)
class Workload:
    """Instances solved as `qcqp solve` does, with one PipelineConfig."""

    name: str
    why: str
    instances: int
    make: Callable  # rng -> instance with problem_json()
    check: Callable  # (instance, report) -> problems
    gap: Callable  # (instance, report) -> gap_ratio
    config: dict  # PipelineConfig fields other than seed
    warm_up_make: Callable  # rng -> a small instance for the warm-up

    def _config(self, seed: int) -> qcqp.cli.PipelineConfig:
        return qcqp.cli.PipelineConfig(seed=seed, **self.config)

    def prepare(self, seed: int, workdir: str) -> list:
        ops = []
        for k in range(self.instances):
            rng = instance_rng(seed, k)
            inst = self.make(rng)
            path = os.path.join(workdir, f"{self.name}-{k}.json")
            write_problem(inst.problem_json(), path)
            config = self._config(int(rng.integers(2**31)))
            ops.append(
                Operation(
                    run=_pipeline(path, config),
                    check=lambda text, inst=inst: self.check(inst, json.loads(text)),
                    gap=lambda text, inst=inst: self.gap(inst, json.loads(text)),
                )
            )
        return ops

    def warm_up(self, workdir: str) -> None:
        path = os.path.join(workdir, f"{self.name}-warm-up.json")
        write_problem(self.warm_up_make(instance_rng(0, 0)).problem_json(), path)
        _pipeline(path, self._config(0))()


def _boolls_gap_with_bound(inst, report) -> float:
    return 1.0 + (report["best"]["objective"] - report["bound"]["bound"]) / inst.optimum


def _boolls_gap(inst, report) -> float:
    return report["best"]["objective"] / inst.optimum


def _beam_gap(inst, report) -> float:
    return report["best"]["objective"] / inst.lower_reference


BOOLLS_M, BOOLLS_N = 25, 16
BEAM = {"n": 4, "m": 8, "l": 3, "tau": 20.0, "eta": 1000.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boolls-sdr",
            why="suggest sdr on boolean LS: the budgeted cutting-plane LP dominates, no projections run",
            instances=2,
            make=lambda rng: make_boolls(rng, BOOLLS_M, BOOLLS_N),
            check=lambda inst, rep: checks.check_boolls(inst, rep, expect_bound=True),
            gap=_boolls_gap_with_bound,
            config={"suggest": "sdr", "improve": ("sign", "cd"), "candidates": 10},
            warm_up_make=lambda rng: make_boolls(rng, 6, 4),
        ),
        Workload(
            name="boolls-admm",
            why="admm on boolean LS on two threads: one-variable equality projections dominate, no LP runs",
            instances=12,
            make=lambda rng: make_boolls(rng, BOOLLS_M, BOOLLS_N),
            check=lambda inst, rep: checks.check_boolls(inst, rep, expect_bound=False),
            gap=_boolls_gap,
            config={
                "suggest": "random",
                "improve": ("admm", "cd"),
                "improve_opts": {"admm": {"max_iter": 50}},
                "candidates": 2,
                "parallel": 2,
            },
            warm_up_make=lambda rng: make_boolls(rng, 6, 4),
        ),
        Workload(
            name="beam-ccp",
            why="ccp alone on beamforming, checked for feasibility: dense inequality projections, splitting and subproblem assembly",
            instances=30,
            make=lambda rng: make_beam(rng, **BEAM),
            check=checks.check_beam,
            gap=_beam_gap,
            config={
                "suggest": "random",
                "improve": ("ccp",),
                # capped effort: at most 8 outer iterations of 10 subsolver
                # iterations; feas_tol=0 stops early only at exact
                # feasibility.  The penalty starts at 32 and doubles every
                # iteration, so CCP is feasible from a random start within
                # the cap; no repair step follows it.
                "improve_opts": {
                    "ccp": {
                        "max_iter": 8,
                        "tau0": 32.0,
                        "feas_tol": 0.0,
                        "subsolver_opts": {"max_iter": 10, "resid_tol": 0.0},
                    }
                },
                "candidates": 1,
            },
            warm_up_make=lambda rng: make_beam(rng, 1, 1, 1, 20.0, 1000.0),
        ),
    )
}
