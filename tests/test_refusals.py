"""Every guarded scalar argument refuses NaN, inf and the values below its
domain by name, before any numpy warning: the Lieb-Robinson bound is a
theorem about a positive rate, a finite time and a Hermitian H, so an input
outside those hypotheses must fail, not return NaN."""

import re
import warnings

import numpy as np
import pytest

from lrlab.errors import ValidationError
from lrlab.locality import (
    a_mu_pointwise,
    certify,
    exp_local_bound,
    optimal_mu_exp_local,
)
from lrlab.models import (
    ConstantHamiltonian,
    ExpLocalSpec,
    LinearInterpolationHamiltonian,
    build_example_ramp,
)
from lrlab.numerics import TimeGrid, check_positive, lambert_w
from lrlab.propagation import evolve_on_grid

NAN, INF = float("nan"), float("inf")
POSITIVE = (NAN, INF, 0.0, -1.0)  # refused where 0 < value < inf is asked
NONNEGATIVE = (NAN, INF, -1.0)  # refused where 0 <= value < inf is asked

_H3 = ConstantHamiltonian(np.diag([0.0, 1.0, 2.0]))
_GRID = TimeGrid.uniform(1.0, 5)
_RAMP = build_example_ramp(2.0)

# (argument name, the call that takes v for it, the values it refuses)
CASES = [
    ("value", lambda v: check_positive("value", v), POSITIVE),
    ("mu", lambda v: certify(_H3, v, _GRID), POSITIVE),
    ("mu", lambda v: a_mu_pointwise(np.eye(3), v), POSITIVE),
    ("tolerance", lambda v: evolve_on_grid(_H3, _GRID, v), POSITIVE),
    ("t_final", lambda v: TimeGrid.uniform(v, 5), POSITIVE),
    ("t_final", lambda v: TimeGrid([0.0, 1.0, v]), POSITIVE),
    (
        "total_time",
        lambda v: LinearInterpolationHamiltonian(np.eye(2), np.eye(2), v),
        POSITIVE,
    ),
    ("t", lambda v: _RAMP.evaluate_batch(np.array([v])), NONNEGATIVE),
    ("t", lambda v: _RAMP.derivative_batch(np.array([v])), NONNEGATIVE),
    ("h", lambda v: exp_local_bound(v, 2.0, 0.5), POSITIVE),
    ("mu_prime", lambda v: exp_local_bound(1.0, v, 0.5), POSITIVE),
    # mu = 0 is the bound's own edge; an infinite mu is the divergent regime
    ("mu", lambda v: exp_local_bound(1.0, 2.0, v), NONNEGATIVE),
    ("h", lambda v: optimal_mu_exp_local(v, 2.0), POSITIVE),
    ("mu_prime", lambda v: optimal_mu_exp_local(1.0, v), POSITIVE),
    ("amplitude", lambda v: ExpLocalSpec(4, v, 1.0, 0), POSITIVE),
    ("decay_rate", lambda v: ExpLocalSpec(4, 1.0, v, 0), POSITIVE),
    ("x", lambda v: lambert_w(v), NONNEGATIVE),
]


@pytest.mark.parametrize(
    "name, call, value",
    [(name, call, v) for name, call, values in CASES for v in values],
    ids=[f"{i}-{name}={v}" for i, (name, _, vs) in enumerate(CASES) for v in vs],
)
def test_guarded_arguments_refuse_nan_inf_and_out_of_domain_values_by_name(
    name, call, value
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            call(value)
    assert re.search(rf"\b{name}\b", str(err.value)), str(err.value)

