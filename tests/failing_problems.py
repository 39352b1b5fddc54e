"""Problems that fail on their own, for the tests that a failing problem
of a stack fails as it does alone.

Every fit problem that a stack admits has a finite lifted cost, and none
was seen to fail `qcqp` or `nls`. So those tests inject the failures of
`qcqp` through `fail_marked_problems`, and those of `nls` through a
refinement status. `sdp` needs no injection: a d0 of FAR, or a window
whose ranges are scaled up to FAR, against metre-scale antenna motion
leaves its relaxation no heading or no homogenizer.
"""

import math

import numpy as np

from range_rte import estimators

FAR = 1e8  # m: within measurement.LARGEST_RANGE, far past the agents' motion
# a range of exactly this value marks a problem that `fail_marked_problems` fails in the sweep
NO_CANDIDATE = 1.25e8
# and one of this value a problem whose every refinement start it makes diverge
DIVERGED = 1.5e8


def fail_marked_problems(monkeypatch):
    """Make `qcqp` fail every problem of a stack whose ranges hold a marker:
    NO_CANDIDATE gives it a NaN lifted cost, so no grid heading of the sweep
    has a finite cost, and DIVERGED NaN rows of B, so every refinement
    start diverges. Only `qcqp` reads B, so the markers are for `qcqp`
    alone: `sdp` would relax the NaN cost."""
    assemble = estimators.assemble_qcqp

    def marked_assemble(stack):
        problem = assemble(stack)
        problem.P0[(stack.d == NO_CANDIDATE).any(axis=1)] = math.nan
        problem.B[(stack.d == DIVERGED).any(axis=1)] = math.nan
        return problem

    monkeypatch.setattr(estimators, "assemble_qcqp", marked_assemble)


def diverge_every_refinement(monkeypatch):
    """Make every start of `estimators.lockstep_newton` end NON_FINITE."""
    lockstep = estimators.lockstep_newton

    def diverged(*args, **kwargs):
        res = lockstep(*args, **kwargs)
        res.status = np.full_like(res.status, estimators.NON_FINITE)
        return res

    monkeypatch.setattr(estimators, "lockstep_newton", diverged)
