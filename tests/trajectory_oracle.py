"""Every trajectory of a process on a small grid, with its probability: the reference for means over draws.

``every_trajectory`` re-enacts the pool's admission rule with Python
sets, as the full-grid oracle in ``test_degradation`` does: components
above the step's radius threshold join the pool, and a step whose pool
would hold fewer than its count takes in every component at or above the
radius of the count-th candidate.  In place of a seeded draw it takes
every subset of the pool of the step's count, each with probability
1 / C(pool, count), which is what a uniform draw without replacement
gives each subset, whatever order it draws in.
"""

import itertools
import math

import numpy as np

from fdbridge import degradation
from fdbridge.degradation import step_counts


def every_trajectory(grid, cfg, t_total):
    """[(probability, removed_at)] over every trajectory of ``cfg`` on steps 1..t_total; removed_at is flat."""
    radius = grid.radius.ravel()
    anchor = min(grid.shape) / 2
    counts = step_counts(grid.n_components, cfg, t_total).tolist()
    removed_at = np.zeros(grid.n_components, dtype=np.int64)
    found = []

    def walk(t, outside, pool, probability):
        if t > t_total:
            found.append((probability, removed_at.copy()))
            return
        need = counts[t - 1]
        threshold = 0.0  # uniform density: every component but DC
        if cfg.density == "radius_scheduled":
            threshold = degradation.radius_threshold(t, cfg.t_f, cfg.r_prime, anchor)
        joining = {k for k in outside if radius[k] > threshold}
        if len(pool) + len(joining) < need:
            cutoff = sorted((radius[k] for k in outside), reverse=True)[need - len(pool) - 1]
            joining = {k for k in outside if radius[k] >= cutoff}
        pool, outside = pool | joining, outside - joining
        share = probability / math.comb(len(pool), need)
        for picked in itertools.combinations(sorted(pool), need):
            removed_at[list(picked)] = t
            walk(t + 1, outside, pool - set(picked), share)
            removed_at[list(picked)] = 0

    walk(1, {k for k in range(grid.n_components) if radius[k] > 0}, set(), 1.0)
    return found
