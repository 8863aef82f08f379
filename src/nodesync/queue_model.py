"""Monte Carlo model of a full node's synchronization request queue.

Arrivals and responses are independent Poisson counts per unit time slot.
The module tracks the unreflected cumulative arrivals-minus-responses walk
and estimates the probability that the running supremum of the walk
exceeds a capacity threshold.  The reflected backlog (Lindley recursion)
is sim_harness's.  Both Monte Carlo paths invert blocks of at most _BLOCK
uniforms and carry their running sums across blocks with _carried_cumsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .seeding import fill_streams

# Table-size guard for the CDF (table length grows linearly in rate).
MAX_VECTOR_RATE = 50_000.0

# Longest walk estimate_tail takes, in slots.  Memory is flat in the
# horizon, but time is not: a walk of this length takes about a second.
MAX_HORIZON = 2**26

# Poisson inversion counts the CDF entries below each uniform over the head
# of the table that holds _HEAD_MASS of the mass; beyond it, and for tables
# whose head exceeds _MAX_HEAD entries, it binary-searches the table.
# On a 2-core x86 VM, inverting a 26 x 10,000 block of uniforms, counting
# beat the binary search at rate 95 (a 127-entry head; 14.7 vs 19.2 ms),
# tied at rate 130 (168 entries; 18.6 vs 20.1 ms) and lost from rate 200
# (246 entries; 32.0 vs 20.5 ms, and 40.3 vs 23.2 ms at rate 300);
# _MAX_HEAD = 128 sends rates above about 95 to the search.  The cut-off
# changes no draw.
# estimate_tail draws _BLOCK // horizon walks (at least one) by at most
# _BLOCK slots at a time and sim_harness a chunk of at most _BLOCK rounds,
# so an inversion call sees at most _BLOCK uniforms (1 MiB of doubles);
# they stay in a per-core L2 cache across the passes over the head.  On a
# 26 x 5000 block the flat index of the uniforms beyond the head takes 0.04 ms; 2-D np.nonzero
# took 0.30 ms, about half of a rate-3 inversion.
_HEAD_MASS = 0.999
_MAX_HEAD = 128
_BLOCK = 1 << 17


@dataclass(frozen=True)
class RateParams:
    """Mean request arrivals (lam) and responses (mu) per slot; both finite,
    mu > lam, and mu / lam finite."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"arrival rate must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu > self.lam):
            raise ValueError(
                "response rate must be finite and exceed arrival rate, "
                f"got mu={self.mu} lam={self.lam}"
            )
        if not math.isfinite(self.mu / self.lam):
            raise ValueError(f"mu / lam overflows a float: mu={self.mu} lam={self.lam}")


@dataclass(frozen=True)
class TailEstimate:
    """Binomial estimate of P(sup backlog > gamma) on a shared run set."""

    gamma: float
    runs: int
    hits: int
    p_hat: float
    std_err: float

    @classmethod
    def from_hits(cls, gamma: float, runs: int, hits: int) -> TailEstimate:
        """The estimate from `hits` of `runs` walks over gamma."""
        p_hat = hits / runs
        return cls(gamma, runs, hits, p_hat, math.sqrt(p_hat * (1.0 - p_hat) / runs))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of -ln(p_hat) against gamma."""

    slope: float
    intercept: float
    n_used: int
    n_excluded: int


def check_sampling_rate(rate: float) -> None:
    """Reject rates whose CDF table is not built for sampling."""
    if not 0 < rate <= MAX_VECTOR_RATE:
        raise ValueError(f"rate must be in (0, {MAX_VECTOR_RATE}] for sampling, got {rate}")


@lru_cache(maxsize=None)
def _poisson_table(rate: float) -> tuple[np.ndarray, int, np.dtype]:
    """Inversion table of X ~ Poisson(rate): the read-only partial sums
    F_k = P(X <= k), the length of their head, and the count type.

    One rule builds every table: F_k is the running sum of the terms
    exp(k ln rate - rate - lgamma(k + 1)) for k = 0 .. hi, with
    hi = int(rate + 12 sqrt(rate) + 20), so the table has hi + 1 entries.
    The terms are taken in log space because exp(-rate) alone underflows to
    zero above rate 745.  The table ends more than 12 standard deviations
    above the mean, where F_k is within about 1e-10 of 1.0.

    The head, which the comparison count covers, runs up to and including
    the first F_k >= _HEAD_MASS.  It is zero when that is longer than
    _MAX_HEAD entries: every uniform then goes to the binary search, which
    is cheaper there than one pass over all uniforms per entry.  The count
    type is the narrowest signed integer type holding +-(len(F) - 1), so
    that a difference of two draws from the table cannot wrap.  The rate is
    checked first; the cache keeps no exception, so a bad rate raises on
    every call.
    """
    check_sampling_rate(rate)
    hi = int(rate + 12.0 * math.sqrt(rate) + 20.0)
    log_rate = math.log(rate)
    log_pmf = [k * log_rate - rate - math.lgamma(k + 1) for k in range(hi + 1)]
    cdf = np.cumsum(np.exp(log_pmf))
    cdf.flags.writeable = False
    head = min(int(np.searchsorted(cdf, _HEAD_MASS, side="left")) + 1, len(cdf))
    return cdf, head if head <= _MAX_HEAD else 0, np.min_scalar_type(-len(cdf))


def _walk_dtype(horizon: int, table_len: int) -> type:
    """Integer type of the running sums of `horizon` arrival-minus-response
    steps, each at most table_len - 1 in size."""
    return np.int32 if horizon * (table_len - 1) < 2**31 else np.int64


def _poisson_inverse(rate: float, u: np.ndarray) -> np.ndarray:
    """Poisson(rate) draws from uniforms by inversion: the smallest k with
    u <= F_k, clipped to the last entry of the CDF table.

    That k is the number of partial sums F_j below u.  Over the head of the
    table (about 99.9 % of the mass) it is counted with one vectorised
    comparison per entry; the rare uniforms beyond the head, and all
    uniforms of rates with a long head, are binary-searched.  The draws come
    in the narrowest signed integer type that holds +-(len(F) - 1).  Every
    head entry is one pass over u, so callers pass blocks of _BLOCK or less.
    """
    cdf, head, dtype = _poisson_table(rate)
    counts = np.zeros(u.shape, dtype=dtype)
    above = np.empty(u.shape, dtype=bool)
    # An int8 view of the flags adds without numpy's mixed-type loop.
    step = above.view(np.int8) if dtype == np.int8 else above
    for f in cdf[:head]:
        np.greater(u, f, out=above)
        counts += step
    beyond = np.unravel_index(np.flatnonzero(counts == head), u.shape)
    counts[beyond] = np.minimum(np.searchsorted(cdf, u[beyond], side="left"), len(cdf) - 1)
    return counts


def _carried_cumsum(steps: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Running sums of each row of `steps`, in place along the last axis,
    continued from the carried sums `total`, which then hold the rows' last
    sums; a series summed piece by piece so gives the sums of one pass."""
    steps[..., 0] += total
    np.cumsum(steps, axis=-1, out=steps)
    total[...] = steps[..., -1]
    return steps


def _walk_sups(params: RateParams, uniforms: np.ndarray, total: np.ndarray, sup: np.ndarray) -> None:
    """Carry one backlog walk per row of uniforms over one chunk of slots.

    A row holds the chunk's arrival uniforms, then as many response ones.
    The walk, arrivals minus responses summed on from the carried sums in
    `total`, is not floored slot by slot like the reflected backlog; only
    its running supremum `sup`, which starts at zero, is.  Both update in place.
    """
    width = uniforms.shape[1] // 2
    arrivals = _poisson_inverse(params.lam, uniforms[:, :width])
    responses = _poisson_inverse(params.mu, uniforms[:, width:])
    walks = _carried_cumsum(np.subtract(arrivals, responses, dtype=total.dtype), total)
    np.maximum(sup, walks.max(axis=1), out=sup)


def estimate_tail(
    params: RateParams,
    gammas: Sequence[float],
    runs: int,
    horizon: int,
    master_seed: int,
) -> list[TailEstimate]:
    """Monte Carlo estimates of P(sup backlog > gamma) for each threshold.

    Every run is an independent walk whose stream is seeded with
    derive_seed(master_seed, run_index); results are therefore identical no
    matter how runs are batched or parallelized.  A batch holds
    _BLOCK // horizon walks (at least one), drawn in chunks of at most
    _BLOCK slots: slots t0 .. t1 - 1 invert doubles t0 .. t1 - 1 of each
    walk's stream for arrivals and horizon + t0 .. for responses, which
    fill_streams fills in one call for a whole walk, else one per half.
    Sums and suprema carry across chunks, so memory is flat in the horizon.
    All thresholds are counted against the same run set, which makes p_hat
    nonincreasing in gamma.  A horizon over MAX_HORIZON raises ValueError
    before anything is drawn.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1 slot, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon must be at most {MAX_HORIZON} slots (MAX_HORIZON), got {horizon}")
    if len(gammas) == 0:
        raise ValueError("gammas must be nonempty")
    g = np.asarray(gammas, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError(f"gammas must be finite, got {list(gammas)}")
    if not np.all(g[1:] > g[:-1]):
        raise ValueError(f"gammas must be strictly increasing, got {list(gammas)}")

    rows, width = max(1, min(_BLOCK // horizon, runs)), min(horizon, _BLOCK)
    dtype = _walk_dtype(horizon, max(len(_poisson_table(rate)[0]) for rate in (params.lam, params.mu)))
    uniforms = np.empty((rows, 2 * width))
    # counts[k]: walks whose supremum is over exactly the k lowest thresholds.
    counts = np.zeros(len(g) + 1, dtype=np.int64)
    for done in range(0, runs, rows):
        nb = min(rows, runs - done)
        total, sup = np.zeros((2, nb), dtype=dtype)
        for t0 in range(0, horizon, width):
            w = min(width, horizon - t0)
            u = uniforms[:nb, : 2 * w]
            if w == horizon:
                fill_streams(master_seed, done, u)
            else:
                fill_streams(master_seed, done, u[:, :w], t0)
                fill_streams(master_seed, done, u[:, w:], horizon + t0)
            _walk_sups(params, u, total, sup)
        counts += np.bincount(np.searchsorted(g, sup), minlength=len(g) + 1)
    hits = np.cumsum(counts[:0:-1])[::-1]
    return [TailEstimate.from_hits(float(gamma), runs, int(h)) for gamma, h in zip(g, hits)]


def fit_decay_slope(estimates: Sequence[TailEstimate]) -> SlopeFit:
    """Ordinary least squares of -ln(p_hat) against gamma.

    Zero-hit estimates carry no log information and are excluded; the count
    of exclusions is reported in the fit.
    """
    usable = [e for e in estimates if e.p_hat > 0]
    excluded = len(estimates) - len(usable)
    if len(usable) < 2:
        raise ValueError(
            f"need at least 2 estimates with p_hat > 0 to fit, have {len(usable)}"
        )
    x = np.array([e.gamma for e in usable])
    y = np.array([-math.log(e.p_hat) for e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        n_used=len(usable),
        n_excluded=excluded,
    )
