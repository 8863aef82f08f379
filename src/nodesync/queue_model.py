"""Monte Carlo model of a full node's synchronization request queue.

Arrivals and responses are independent Poisson counts per unit time slot,
drawn by inversion through a guide table (_guided_count) that netsim's
routing shares.  The module tracks the unreflected cumulative
arrivals-minus-responses walk and estimates the probability that its
running supremum exceeds a capacity threshold; the reflected backlog
(Lindley recursion) is sim_harness's.  Both Monte Carlo paths invert blocks
of at most _BLOCK uniforms and carry their running sums with _carried_cumsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .seeding import fill_streams, stream_states

# Table-size guard for the CDF (table length grows linearly in rate).
MAX_VECTOR_RATE = 50_000.0

# Longest walk estimate_tail takes, in slots.  Memory is flat in the
# horizon, but time is not: a walk of this length takes about a second.
MAX_HORIZON = 2**26

# An inversion call sees at most _BLOCK uniforms (1 MiB of doubles):
# estimate_tail draws _BLOCK // (2 horizon) walks (at least one) by at most
# _BLOCK slots at a time, and sim_harness a chunk of at most _BLOCK rounds.
_BLOCK = 1 << 17
_MIN_GUIDE = 1 << 14  # the least number of buckets of a guide table (_guide)


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
def _poisson_table(rate: float) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """Inversion table of X ~ Poisson(rate): the read-only partial sums
    F_k = P(X <= k), the guide of their search, and the count type.

    One rule builds every table: F_k is the running sum of the terms
    exp(k ln rate - rate - lgamma(k + 1)) for k = 0 .. hi, with
    hi = int(rate + 12 sqrt(rate) + 20), so the table has hi + 1 entries.
    The terms are taken in log space because exp(-rate) alone underflows to
    zero above rate 745.  The table ends more than 12 standard deviations
    above the mean, where F_k is within about 1e-10 of 1.0.  The guide,
    _guide's over all but the last F_k, is built with the table, in the
    narrowest signed integer type holding +-(len(F) - 1), so that a
    difference of two draws cannot wrap.  The rate is checked first; the
    cache keeps no exception, so a bad rate raises on every call.
    """
    check_sampling_rate(rate)
    hi = int(rate + 12.0 * math.sqrt(rate) + 20.0)
    log_rate = math.log(rate)
    log_pmf = [k * log_rate - rate - math.lgamma(k + 1) for k in range(hi + 1)]
    cdf = np.cumsum(np.exp(log_pmf))
    cdf.flags.writeable = False
    dtype = np.min_scalar_type(-len(cdf))
    return cdf, _guide(cdf[:-1], "left", dtype), dtype


def _guide(table: np.ndarray, side: str, dtype: type) -> np.ndarray:
    """Read-only guide table (Chen and Asau 1974), in `dtype`, of the counts
    of entries of the sorted `table` on `side` of a uniform: bucket b of G
    (the least power of two >= 4 len(table), at least _MIN_GUIDE) takes u in
    [b/G, (b+1)/G) and holds the count at b/G if it holds at (b+1)/G, since
    no entry then lies in it, else -1, as does the last, which takes u >= 1."""
    size = max(_MIN_GUIDE, 1 << (4 * len(table) - 1).bit_length())
    edges = np.searchsorted(table, np.arange(size + 1) / size, side=side)
    guide = np.where(edges[1:] == edges[:-1], edges[:-1], -1).astype(dtype, copy=False)
    guide[-1] = -1
    guide.flags.writeable = False
    return guide


def _guided_count(table: np.ndarray, guide: np.ndarray, side: str, u: np.ndarray) -> np.ndarray:
    """searchsorted(table, u, side) for u >= 0, in the type of `guide`: u * G
    is exact for a power of two G, so u's bucket b has b/G <= u < (b+1)/G,
    and only u in buckets holding -1 are binary-searched, through a flat
    index.  An intp guide's counts overwrite the 8-byte bucket index."""
    index = np.empty(u.shape, dtype=np.intp)
    np.multiply(u, len(guide), out=index, casting="unsafe")
    counts = guide.take(index, mode="clip", out=index if guide.dtype == index.dtype else None)
    slow = np.flatnonzero(counts < 0)
    counts.reshape(-1)[slow] = np.searchsorted(table, u[np.unravel_index(slow, u.shape)], side=side)
    return counts


def _walk_dtype(horizon: int, table_len: int) -> type:
    """Integer type of the running sums of `horizon` arrival-minus-response
    steps, each at most table_len - 1 in size."""
    return np.int32 if horizon * (table_len - 1) < 2**31 else np.int64


def _poisson_inverse(rate: float, u: np.ndarray) -> np.ndarray:
    """Poisson(rate) draws from uniforms by inversion: the smallest k with
    u <= F_k, clipped to the last entry of the CDF table, which is the number
    of partial sums F_j but the last below u, in the table's count type."""
    cdf, guide, _ = _poisson_table(rate)
    return _guided_count(cdf[:-1], guide, "left", u)


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
    matter how runs are batched or parallelized.  A batch holds _BLOCK //
    (2 horizon) walks (at least one), half a block of uniforms per inversion
    to leave room for the bucket indices, drawn in chunks of at most
    _BLOCK slots: slots t0 .. t1 - 1 invert doubles t0 .. t1 - 1 of each
    walk's stream for arrivals and horizon + t0 .. for responses, which
    fill_streams fills in one call for a whole walk, else one per half, from
    states hashed once per run (stream_states; a walk of several chunks is
    alone in its batch and keeps its state).  Sums and suprema carry across
    chunks, so memory is flat in the horizon.  All thresholds are counted
    against the same run set, which makes p_hat nonincreasing in gamma.  A
    horizon over MAX_HORIZON raises ValueError before anything is drawn.
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

    rows, width = max(1, min(_BLOCK // (2 * horizon), runs)), min(horizon, _BLOCK)
    dtype = _walk_dtype(horizon, max(len(_poisson_table(rate)[0]) for rate in (params.lam, params.mu)))
    uniforms = np.empty((rows, 2 * width))
    # counts[k]: walks whose supremum is over exactly the k lowest thresholds.
    counts = np.zeros(len(g) + 1, dtype=np.int64)
    states = stream_states(master_seed, 0, runs)
    for done in range(0, runs, rows):
        nb = min(rows, runs - done)
        total, sup = np.zeros((2, nb), dtype=dtype)
        batch = states if width == horizon else list(islice(states, nb))
        for t0 in range(0, horizon, width):
            w = min(width, horizon - t0)
            u = uniforms[:nb, : 2 * w]
            if w == horizon:
                fill_streams(master_seed, done, u, 0, batch)
            else:
                fill_streams(master_seed, done, u[:, :w], t0, batch)
                fill_streams(master_seed, done, u[:, w:], horizon + t0, batch)
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
