from __future__ import annotations

import math

import pytest

from nodesync.ldp_analytics import (
    ToleranceSpec,
    decay_surface,
    effective_capacity,
    effective_rate,
    failure_rate_approx,
    rate_function,
)
from nodesync.queue_model import RateParams


def test_tolerance_bounds():
    ToleranceSpec(1.0)
    ToleranceSpec(1e-9)
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(ValueError):
            ToleranceSpec(bad)


def test_rate_function_values():
    params = RateParams(lam=3.0, mu=6.0)
    assert rate_function(0.0, params) == 0.0
    assert rate_function(1.0, RateParams(lam=3.0, mu=3.0 * math.e)) == pytest.approx(1.0, abs=1e-12)
    assert rate_function(0.5, params) == pytest.approx(0.3465735903, abs=1e-9)
    with pytest.raises(ValueError):
        rate_function(-0.1, params)


def test_rate_function_linearity_and_log_growth():
    params = RateParams(lam=3.0, mu=7.0)
    for x in (0.1, 0.7, 2.5):
        assert rate_function(2 * x, params) == pytest.approx(2 * rate_function(x, params), abs=1e-12)
        scaled = RateParams(lam=3.0, mu=7.0 * 4.0)
        assert rate_function(x, scaled) == pytest.approx(
            rate_function(x, params) + x * math.log(4.0), abs=1e-12
        )


def test_rate_function_monotonicity():
    params = RateParams(lam=3.0, mu=6.0)
    xs = [0.0, 0.5, 1.0, 2.0]
    values = [rate_function(x, params) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))
    mus = [4.0, 6.0, 9.0]
    at_x = [rate_function(1.5, RateParams(lam=3.0, mu=mu)) for mu in mus]
    assert all(b > a for a, b in zip(at_x, at_x[1:]))


def test_failure_rate_values():
    params = RateParams(lam=3.0, mu=6.0)
    assert failure_rate_approx(0.0, params) == 1.0
    assert failure_rate_approx(1.0, params) == pytest.approx(0.5, abs=1e-12)
    assert failure_rate_approx(10.0, params) == pytest.approx(2.0**-10, rel=1e-12)
    with pytest.raises(ValueError):
        failure_rate_approx(-1.0, params)


def test_effective_capacity_values():
    params = RateParams(lam=3.0, mu=6.0)
    assert effective_capacity(ToleranceSpec(1.0), params) == 0.0
    assert math.copysign(1.0, effective_capacity(ToleranceSpec(1.0), params)) == 1.0
    assert effective_capacity(ToleranceSpec(0.01), params) == pytest.approx(6.643856, abs=1e-5)


def test_effective_rate_values():
    assert effective_rate(ToleranceSpec(1.0), gamma=5.0, lam=3.0) == pytest.approx(3.0)
    assert effective_rate(ToleranceSpec(0.01), gamma=10.0, lam=3.0) == pytest.approx(
        4.754679, abs=1e-5
    )
    with pytest.raises(ValueError):
        effective_rate(ToleranceSpec(0.5), gamma=0.0, lam=3.0)
    with pytest.raises(ValueError):
        effective_rate(ToleranceSpec(0.5), gamma=1.0, lam=0.0)
    for gamma, lam in ((1.0, math.inf), (1.0, math.nan), (math.inf, 3.0), (math.nan, 3.0)):
        with pytest.raises(ValueError):
            effective_rate(ToleranceSpec(0.5), gamma=gamma, lam=lam)
    # Rates beyond the float range: math.exp overflows, or lam * exp(...) does.
    for eps, gamma, lam in ((0.01, 0.001, 3.0), (0.5, 1e-320, 3.0), (0.5, 1.0, 1e308)):
        with pytest.raises(ValueError):
            effective_rate(ToleranceSpec(eps), gamma=gamma, lam=lam)


def _identity_grid():
    epsilons = [0.003, 0.01, 0.05, 0.2, 0.97]
    lams = [0.5, 3.0, 7.5, 20.0]
    ratios = [1.1, 2.0, 3.3, 10.0, 40.0]
    for eps in epsilons:
        for lam in lams:
            for ratio in ratios:
                yield eps, lam, lam * ratio


def test_inverse_identities_on_grid():
    count = 0
    for eps, lam, mu in _identity_grid():
        params = RateParams(lam=lam, mu=mu)
        tol = ToleranceSpec(eps)
        gamma_star = effective_capacity(tol, params)
        assert failure_rate_approx(gamma_star, params) == pytest.approx(eps, rel=1e-12)
        assert effective_rate(tol, gamma_star, lam) == pytest.approx(mu, rel=1e-12)
        count += 1
    assert count == 100


def test_decay_surface_matches_closed_form():
    surface = decay_surface([0.0, 0.5, 1.0], [0.0, 3.0, 10.0], lam=3.0)
    assert [p.i_value for p in surface[0]] == [0.0, 0.0, 0.0]
    assert [row[0].i_value for row in surface] == [0.0, 0.0, 0.0]
    assert surface[2][1].i_value == pytest.approx(math.log(2.0), abs=1e-12)
    assert surface[2][2].i_value == pytest.approx(math.log(13.0 / 3.0), abs=1e-12)
    assert surface[1][1].x == 0.5
    assert surface[1][1].rate_gap == 3.0


def test_decay_surface_validation():
    with pytest.raises(ValueError):
        decay_surface([-0.1], [0.0], lam=3.0)
    with pytest.raises(ValueError):
        decay_surface([0.1], [-1.0], lam=3.0)
    with pytest.raises(ValueError):
        decay_surface([0.1], [1.0], lam=0.0)
    for xs, gaps, lam in (([0.1], [1.0], math.nan), ([0.1], [1.0], math.inf),
                          ([math.nan], [1.0], 3.0), ([math.inf], [1.0], 3.0),
                          ([0.1], [math.nan], 3.0), ([0.1], [math.inf], 3.0),
                          ([0.1], [0.0, 10.0], 1e-310), ([0.1], [1e308], 1e308)):
        with pytest.raises(ValueError):
            decay_surface(xs, gaps, lam=lam)


def test_surface_affine_in_x_and_concave_in_gap():
    xs = [i / 50 for i in range(51)]
    gaps = [i / 5 for i in range(51)]
    surface = decay_surface(xs, gaps, lam=3.0)
    # Affine in x at a fixed rate ratio: vanishing second differences.
    for j in (1, 17, 50):
        column = [surface[i][j].i_value for i in range(51)]
        for a, b, c in zip(column, column[1:], column[2:]):
            assert (a - 2 * b + c) == pytest.approx(0.0, abs=1e-12)
    # Strictly concave in the rate gap at fixed positive x.
    for i in (1, 25, 50):
        row = [surface[i][j].i_value for j in range(51)]
        for a, b, c in zip(row, row[1:], row[2:]):
            assert (a - 2 * b + c) < 0
