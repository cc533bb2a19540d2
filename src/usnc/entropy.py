"""Subnormalized classical distributions, trace distance, and min-entropies.

All entropies are in bits. Smoothing optimizes over the ball of subnormalized
distributions within generalized trace distance eps of the input. For a
modification that removes total mass R and adds total mass A (disjoint
coordinates), the distance is max(R, A); adding mass never lowers a maximum,
so the optimum only removes mass and the ball constraint reduces to a removal
budget of eps. Capping the largest entries of each side-information column
against that budget is therefore exact; the unconditional case is the one
with a single column.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ClassicalDistribution",
    "JointDistribution",
    "gtd",
    "min_entropy",
    "cond_min_entropy",
    "smooth_min_entropy",
    "smooth_cond_min_entropy",
]

_MASS_TOL = 1e-12
_MAX_DENSE = 1 << 20
_SHAPES = {1: ("1-D vector", "distributions"), 2: ("2-D matrix", "joints")}


def _checked_mass(mass, ndim: int) -> np.ndarray:
    """Read-only float64 copy of a subnormalized mass array of ``ndim`` axes,
    with float noise below zero clipped."""
    shape, kind = _SHAPES[ndim]
    arr = np.asarray(mass, dtype=np.float64)
    if arr.ndim != ndim or arr.size < 1:
        raise ValueError("mass must be a " + shape)
    if arr.size > _MAX_DENSE:
        raise ValueError("dense %s limited to 2^20 entries" % kind)
    low = arr.min(initial=0.0)  # NaN if any entry is NaN
    if not low >= -_MASS_TOL:
        raise ValueError("%s probability mass" % (
            "NaN" if np.isnan(low) else "negative"))
    if arr.sum() > 1.0 + _MASS_TOL:
        raise ValueError("total mass exceeds 1")
    arr = np.maximum(arr, 0.0)
    arr.setflags(write=False)
    return arr


class ClassicalDistribution:
    """Subnormalized probability vector over a finite index set."""

    __slots__ = ("mass",)

    def __init__(self, mass):
        self.mass = _checked_mass(mass, 1)


class JointDistribution:
    """Subnormalized joint mass over (x, z); x indexes rows, z columns."""

    __slots__ = ("mass",)

    def __init__(self, mass):
        self.mass = _checked_mass(mass, 2)


def _mass_of(obj) -> np.ndarray:
    if isinstance(obj, (ClassicalDistribution, JointDistribution)):
        return obj.mass
    return np.asarray(obj, dtype=np.float64)


def gtd(p, q) -> float:
    """Generalized trace distance between two (sub)normalized mass vectors.

    Half the l1 distance plus half the difference of total masses; equals
    total variation distance when both arguments are normalized. A NaN or
    infinite result, from a NaN or infinite entry, is refused.
    """
    pm = _mass_of(p)
    qm = _mass_of(q)
    if pm.shape != qm.shape:
        raise ValueError("index spaces differ: %s vs %s" % (pm.shape, qm.shape))
    dist = 0.5 * float(np.abs(pm - qm).sum()) \
        + 0.5 * abs(float(pm.sum() - qm.sum()))
    if not dist < np.inf:  # NaN or inf, from a NaN or infinite entry
        raise ValueError("%s probability mass"
                         % ("NaN" if np.isnan(dist) else "infinite"))
    return dist


def min_entropy(p: ClassicalDistribution) -> float:
    """-log2 of the largest mass; +0.0 for a point mass."""
    return _smooth_guess_entropy(p.mass, 0.0)


def cond_min_entropy(j: JointDistribution) -> float:
    """-log2 sum_z max_x j(x, z); +0.0 when the view determines x."""
    return _smooth_guess_entropy(j.mass, 0.0)


def smooth_min_entropy(p: ClassicalDistribution, eps: float) -> float:
    """Max min-entropy over the distance-eps ball of subnormalized vectors:
    the conditional case with a single side-information column."""
    return _smooth_guess_entropy(p.mass, eps)


def smooth_cond_min_entropy(j: JointDistribution, eps: float) -> float:
    """Max conditional min-entropy over the distance-eps ball."""
    return _smooth_guess_entropy(j.mass, eps)


def _smooth_guess_entropy(mass: np.ndarray, eps: float) -> float:
    """-log2 of the least guessing mass sum_z t_z with removal
    sum_z sum_x max(j(x,z) - t_z, 0) <= eps; a 1-D mass is one column z.

    At eps = 0 that is sum_z max_x j(x, z), a flat max for a 1-D mass (the
    faster form). Otherwise it is solved exactly: the objective is the
    guessing mass, its reduction per column is piecewise linear with
    integer slopes, and spending the removal budget on segments of
    ascending slope is optimal (the one-sided removal argument in the
    module docstring turns the eps-ball into this budget).
    """
    if eps == 0.0:
        guess = float(mass.max() if mass.ndim == 1
                      else mass.max(axis=0).sum())
        if guess <= 0.0:
            raise ValueError("zero distribution has no min-entropy")
        return 0.0 - np.log2(guess)  # 0.0 - x, unlike -x, is never -0.0
    if not eps >= 0.0:  # also refuses NaN
        raise ValueError("eps must be nonnegative, got %r" % eps)
    total = float(mass.sum())
    if eps >= total:
        raise ValueError("eps >= total mass: entropy unbounded")
    if mass.ndim == 1:
        mass = mass[:, None]
    rates, widths, guess0 = _column_segments(mass)
    order = np.argsort(rates, kind="stable")
    rates, widths = rates[order], widths[order]
    costs = rates * widths
    ccost = np.cumsum(costs)
    stop = int(np.searchsorted(ccost, eps))
    reduced = float(widths[:stop].sum())
    spent = float(ccost[stop - 1]) if stop else 0.0
    if stop < rates.size:
        reduced += (eps - spent) / float(rates[stop])
    t_sum = guess0 - reduced
    # the guessing mass is at least (total - eps)/rows exactly; clamp away
    # roundoff when eps sits within float noise of the total mass
    t_sum = max(t_sum, (total - eps) / mass.shape[0])
    return -np.log2(t_sum)


def _column_segments(mass: np.ndarray):
    """Per-column cap-lowering segments (slope, width) and initial guess mass.

    For a column sorted descending s1 >= s2 >= ..., lowering the cap through
    (s_{r+1}, s_r) removes r units of mass per unit of cap; the final segment
    runs down to zero with slope = number of positive entries.
    """
    cols = np.sort(mass, axis=0)[::-1]  # descending along x
    guess0 = float(cols[0].sum())
    nx = cols.shape[0]
    lower = np.vstack([cols[1:], np.zeros((1, cols.shape[1]))])
    widths = cols - lower  # widths[r] = s_{r+1} - s_{r+2}
    rates = np.broadcast_to(np.arange(1, nx + 1)[:, None], widths.shape)
    keep = widths > 0
    return (rates[keep].astype(np.float64).ravel(),
            widths[keep].ravel(), guess0)
