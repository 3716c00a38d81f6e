"""Built-in property checks: all must pass, for more than one seed."""

from __future__ import annotations

import pytest

from nspnp.selfcheck import (
    check_dirichlet_pinning,
    check_quadrature_exactness,
    check_sources_finite_difference,
    run_all,
)


@pytest.mark.parametrize("seed", [0, 12345])
def test_run_all_passes(seed):
    results = run_all(seed=seed)
    names = [res.name for res in results]
    assert len(set(names)) == len(names)
    assert len(results) == 9
    failures = [res for res in results if not res.passed]
    assert not failures, "\n".join(f"{r.name}: {r.detail}" for r in failures)
    for res in results:
        assert res.detail


def test_quadrature_check_reports_margin():
    result = check_quadrature_exactness()
    assert result.passed
    assert "1e-14" in result.detail or "e-1" in result.detail


def test_dirichlet_check():
    assert check_dirichlet_pinning().passed


def test_source_check_uses_requested_point_count():
    result = check_sources_finite_difference(seed=7, n_points=20)
    assert result.passed
