"""Each simulation and its evolution run the same transfer, bit for bit.

The LMMSE and matched-filter output variances and the extrinsic-variance rule
are each written once; these checks pin that the simulated step and the
scalar evolution read the same numbers from them.
"""

import numpy as np
import pytest

from mamp import (
    NonImprovingNLEError,
    PriorParams,
    bg_mmse,
    build_structured_operator,
    exact_moments_from_singular_values,
    lmmse_le,
    make_geometric_singular_values,
    run_bo_mamp_se,
    run_mf_oamp,
    run_mf_oamp_se,
    sample_instance,
    tables_from_singular_values,
)
from mamp import denoisers, evolution
from mamp.baselines import mf_transfer
from mamp.denoisers import extrinsic_variance
from mamp.evolution import _phi_se, lmmse_gamma_se


def _system(M, N, kappa=10.0, seed=0):
    d = make_geometric_singular_values(min(M, N), kappa, 1.7 * max(M, N))
    op = build_structured_operator(M, N, d, rng_seed=seed)
    inst = sample_instance(op, PriorParams(mu=0.2), snr_db=20.0, rng_seed=seed + 1)
    return d, inst, exact_moments_from_singular_values(d, N, 1, M=M)


@pytest.mark.parametrize("M, N", [(128, 256), (512, 128)])
def test_lmmse_step_and_evolution_share_the_transfer(M, N):
    d, inst, spectrum = _system(M, N)
    x = np.zeros(N, dtype=complex)
    for v_phi in (1.0, 0.3, 1e-2, 1e-5):
        _, v_gamma = lmmse_le(x, v_phi, inst, inst.y - inst.operator.apply(x))
        assert v_gamma == lmmse_gamma_se(v_phi, spectrum, inst.noise_var)


def test_mf_simulation_and_evolution_share_the_transfer():
    d, inst, spectrum = _system(128, 256)
    prior, sigma2 = PriorParams(mu=0.2), inst.noise_var
    lam1, lam2 = float(spectrum.moments[1]), float(spectrum.moments[2])
    sim = run_mf_oamp(inst, prior, 8, spectrum)
    for rec in sim.records:
        assert rec.v_gamma == mf_transfer(rec.v_phi_bar, lam1, lam2, sigma2)
    se = run_mf_oamp_se(spectrum, prior, sigma2, 8)
    v_phi = 1.0
    for rec in se.records:
        assert rec.v_gamma == mf_transfer(v_phi, lam1, lam2, sigma2)
        v_phi = rec.v_phi_bar


def test_extrinsic_rule_needs_strict_improvement():
    assert extrinsic_variance(0.25, 0.5) == 0.5
    for v_post in (0.5, 0.75, np.nan):
        assert extrinsic_variance(v_post, 0.5) is None


def test_no_extrinsic_at_posterior_variance_equal_to_input(monkeypatch):
    v = 0.25
    r = np.ones(64, dtype=complex)

    def flat_posterior(r, v, prior, scratch, mean=None, var=None):
        return np.zeros_like(r), np.full(r.shape, v)

    monkeypatch.setattr(denoisers, "_posterior_moments", flat_posterior)
    out = bg_mmse(r, v, PriorParams(mu=0.2))
    assert out.posterior_var == v
    assert out.extrinsic_mean is None and out.extrinsic_var is None


def test_scalar_maps_stop_at_posterior_variance_equal_to_input(monkeypatch):
    prior = PriorParams(mu=0.2)
    monkeypatch.setattr(evolution, "scalar_mmse", lambda v, prior: v)
    with pytest.raises(NonImprovingNLEError):
        _phi_se(0.25, prior)
    d = make_geometric_singular_values(64, 4.0, 128.0)
    tab = tables_from_singular_values(d, 128, 4, M=64)
    se = run_bo_mamp_se(tab, prior, 1e-2, 4, nle_mode="deterministic")
    assert se.status == "early_stop_nle"
    (rec,) = se.records
    assert rec.mse == rec.v_hat == rec.v_gamma
