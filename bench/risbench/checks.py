"""Correctness checks of the rows and solutions a run hands to the harness.

Every row a scheme answers is checked against the scenario it was
computed for: the phases lie in their domain, an independent fixed
point at a tighter tolerance reproduces the loads, the total is the sum
of the loads, and the feasibility flag matches them.  A row that raised
counts as a verified infeasible instance when the scheme's phases are
known from its definition and the reference load iteration at them
passes a load of 1 or has no finite fixed point; a row that ran out of
iterations on an instance the reference serves, and any other raised
row, is a failed operation.  A wrong answer is never a
failure but a broken run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risload import (CouplingError, Domain, NonConvergence, PhaseConfig,
                     fixed_point_loads)

REFERENCE_TOL = 1e-10       # residual tolerance of the reference fixed point
# Iteration budget of the reference, ten times the program's default: on a
# near-critical instance (contraction within about 2e-3 of 1) the program
# reaches its 1e-8 residual in under 10,000 steps, and the reference needs
# a few thousand more to reach REFERENCE_TOL.
REFERENCE_MAX_ITER = 100_000
LOADS_RTOL = 1e-6           # relative agreement required of reported loads

OK, INFEASIBLE, FAILED = "ok", "infeasible", "failed"


@dataclass(frozen=True)
class Outcome:
    """What a scheme call returned: a Solution or the exception it raised."""

    scenario: object
    solution: object = None
    error: BaseException | None = None


def reference_phases(token: str, s, seed: int):
    """Phases a baseline scheme uses by definition, None for optimizers.

    No-RIS sets every amplitude to zero.  Random draws, from a generator
    seeded with the row seed, amplitudes uniform on [0, 1] and then
    phases uniform on [0, 2 pi) for every element.
    """
    if token == "NoRIS":
        return PhaseConfig.zero(s)
    if token == "Random":
        rng = np.random.default_rng(seed)
        shape = (s.num_ris, s.elements_per_ris)
        amp = rng.uniform(0.0, 1.0, size=shape)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        return PhaseConfig(amp * np.exp(1j * theta), Domain.ideal())
    return None


def check_solution(s, sol, token: str, seed: int) -> list:
    """Problems found in one returned Solution; empty when it is correct."""
    problems = []
    try:
        sol.phases.validate()
    except ValueError as exc:
        problems.append(f"phases outside their domain: {exc}")
    ref = reference_phases(token, s, seed)
    if ref is not None and not np.array_equal(sol.phases.phi, ref.phi):
        problems.append("phases differ from the scheme's definition")
    loads = np.asarray(sol.loads, dtype=float)
    try:
        want = fixed_point_loads(s, sol.phases, tol=REFERENCE_TOL,
                                 max_iter=REFERENCE_MAX_ITER).loads
    except CouplingError as exc:
        problems.append(f"reference fixed point failed: {exc}")
    else:
        rel = np.max(np.abs(loads - want)
                     / np.maximum(np.abs(want), np.finfo(float).tiny))
        if not rel <= LOADS_RTOL:
            problems.append(f"loads off the reference fixed point by {rel:.3g}"
                            f" relative (limit {LOADS_RTOL:g})")
    if sol.total_load != float(np.sum(loads)):
        problems.append("total_load is not the sum of the loads")
    if sol.feasible != bool(np.all(loads <= 1.0)):
        problems.append("feasible flag disagrees with the loads")
    return problems


def classify(row, outcome: Outcome) -> tuple:
    """Classify one harness row as ok, infeasible or failed.

    Returns ``(kind, problems)``; ``problems`` lists every way the row
    contradicts the scheme call behind it or the reference model.
    """
    where = f"{row.scheme} value={row.value:g} seed={row.seed}"
    if outcome.scenario.seed != row.seed:
        return FAILED, [f"{where}: row and scheme call are out of step"]
    if row.error:
        if outcome.error is None:
            return FAILED, [f"{where}: error row for a call that returned"]
        if not isinstance(outcome.error, NonConvergence):
            return FAILED, []
        ref = reference_phases(row.scheme, outcome.scenario, row.seed)
        if ref is None:
            return FAILED, []
        try:
            want = fixed_point_loads(outcome.scenario, ref, tol=REFERENCE_TOL,
                                     max_iter=REFERENCE_MAX_ITER).loads
        except NonConvergence as exc:
            want = exc.loads
        # From zero the iterates rise monotonically to the least fixed point,
        # so a load above 1 anywhere on the way, or no finite fixed point,
        # shows that these phases cannot serve the demand.
        if not np.all(want <= 1.0):
            return INFEASIBLE, []
        # A finite last iterate below the reference stopped short of it: the
        # program ran out of iterations on an instance it could serve.
        last = outcome.error.loads
        if (last is not None and np.all(np.isfinite(last))
                and np.all(last <= want * (1.0 + LOADS_RTOL))):
            return FAILED, []
        return FAILED, [f"{where}: reported divergence but the reference"
                        " fixed point converges with every load at most 1"]
    sol = outcome.solution
    if sol is None:
        return FAILED, [f"{where}: answered row for a call that raised"]
    problems = [f"{where}: {p}"
                for p in check_solution(outcome.scenario, sol, row.scheme,
                                        row.seed)]
    if row.total_load != sol.total_load or row.feasible != sol.feasible:
        problems.append(f"{where}: row does not report the solution")
    return OK, problems
