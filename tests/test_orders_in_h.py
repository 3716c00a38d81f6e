"""Orders in h of the P1/P2 pair on ex1's joint ladder, tau = 1/nx = h/2.

ex1 on (-1, 1)^2 to t_final = 1 at nx = 10, 20, 40 and 80, each with
tau = 1/nx, so h and tau halve together.  At these steps the time error is
small beside the space error, and the errors fall at the interpolation
orders of the elements: L2 2 and H1 1 for the P1 c1, c2, phi and p, L2 3
and H1 2 for the P2 u.  The rates of the last two halvings (20 -> 40 and
40 -> 80) measured 1.93, 1.89 (c1 L2), 1.94, 1.95 (phi L2), 3.07, 2.59
(u L2), 1.93, 1.68 (p L2), 0.99, 1.00 (c1 H1), 1.01, 1.00 (phi H1) and
2.03, 1.99 (u H1), with c2's the same as c1's; u's L2 and p's rates sag
on the last halving.  Each window below holds its two measured rates with
a margin of 0.07 to 0.14.  p's H1 seminorm, which fell at 0.85 and 0.74,
is not asserted.
"""

from __future__ import annotations

import numpy as np
import pytest

from nspnp.mms import case_by_name, case_operators, run_case
from nspnp.scheme import SchemeParams

pytestmark = pytest.mark.slow

NXS = (10, 20, 40, 80)

# (field, index into error_norms' (L2, H1 seminorm, H1)) -> the window of the last two rates.
WINDOWS = {
    ("c1", 0): (1.8, 2.05),
    ("c2", 0): (1.8, 2.05),
    ("phi", 0): (1.8, 2.05),
    ("u", 0): (2.45, 3.2),
    ("p", 0): (1.55, 2.05),
    ("c1", 1): (0.9, 1.1),
    ("c2", 1): (0.9, 1.1),
    ("phi", 1): (0.9, 1.1),
    ("u", 1): (1.9, 2.1),
}


@pytest.fixture(scope="module")
def ladder_errors():
    case = case_by_name("example1")
    errors = []
    for nx in NXS:
        params = SchemeParams(tau=1.0 / nx, t_final=1.0, c0=case.c0)
        _, _, report = run_case(case, params, ops=case_operators(case, nx))
        errors.append(report.errors)
    return errors


@pytest.mark.parametrize("field, norm", list(WINDOWS), ids=[f"{f}-{('L2', 'H1')[k]}" for f, k in WINDOWS])
def test_ex1_errors_fall_at_the_orders_of_the_elements_in_h(ladder_errors, field, norm):
    e = np.array([errors[field][norm] for errors in ladder_errors])
    rates = np.log2(e[:-1] / e[1:])[-2:]
    low, high = WINDOWS[field, norm]
    assert np.all((low <= rates) & (rates <= high)), f"{field} rates {rates} outside [{low}, {high}]"
