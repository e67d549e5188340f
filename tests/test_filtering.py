import numpy as np
import pytest

from flowdesign import filtering
from flowdesign import (
    FlowModel,
    ValidationError,
    predict_update,
    predicted_info,
    steady_state_info,
)

from oracles import riccati_bisect, riccati_iterate


def diffuse(n_r):
    """Zero-information prior as (info, mean); the first observed update
    overwrites the NaN mean."""
    return np.zeros(n_r), np.full(n_r, np.nan)


def fm2():
    return FlowModel(sigma2=[0.25, 1.0], mu=[100.0, 100.0])


# -------------------------------------------------------------- predict/update


def test_diffuse_absorbs_first_observation():
    fm = FlowModel(sigma2=[1.0], mu=[10.0])
    info, mean = predict_update(*diffuse(1), fm, m=[5.0], y=[42.0])
    assert info[0] == 5.0
    assert mean[0] == 42.0


def test_two_step_hand_value():
    # info after the second unit-information update with sigma2 = 1:
    # 1/(1+1) + 1 = 1.5; mean is the information-weighted blend.
    fm = FlowModel(sigma2=[1.0], mu=[10.0])
    info, mean = predict_update(*diffuse(1), fm, m=[1.0], y=[0.0])
    info, mean = predict_update(info, mean, fm, m=[1.0], y=[3.0])
    assert info[0] == pytest.approx(1.5, rel=1e-12)
    assert mean[0] == pytest.approx((0.5 / 1.5) * 0.0 + (1.0 / 1.5) * 3.0, rel=1e-12)


def test_pure_prediction_keeps_mean_shrinks_info():
    fm = fm2()
    info, mean = np.array([4.0, 2.0]), np.array([7.0, -1.0])
    info2, mean2 = predict_update(info, mean, fm, m=[0.0, 0.0])
    assert np.array_equal(mean2, mean)
    assert info2[0] == pytest.approx(4.0 / (1 + 0.25 * 4.0))
    assert info2[1] == pytest.approx(2.0 / (1 + 1.0 * 2.0))


def test_mixed_observed_unobserved():
    fm = fm2()
    info, mean = predict_update([4.0, 2.0], [7.0, -1.0], fm, m=[3.0, 0.0],
                                y=[10.0, np.nan])
    prior = 4.0 / (1 + 0.25 * 4.0)
    assert info[0] == pytest.approx(prior + 3.0)
    gain = 3.0 / (prior + 3.0)
    assert mean[0] == pytest.approx(7.0 + gain * (10.0 - 7.0))
    assert mean[1] == -1.0


@pytest.mark.parametrize("m", [[0.0, 0.0], [3.0, 0.0]])
def test_predict_update_returns_new_arrays(m):
    # the caller's arrays are neither written nor handed back, so a later
    # write to them cannot reach the returned posterior
    fm = fm2()
    info, mean = np.array([4.0, 2.0]), np.array([7.0, -1.0])
    info2, mean2 = predict_update(info, mean, fm, m=m, y=[10.0, np.nan])
    assert info.tolist() == [4.0, 2.0] and mean.tolist() == [7.0, -1.0]
    info[:] = -5.0
    mean[:] = np.nan
    assert np.all(info2 > 0) and np.all(np.isfinite(mean2))


def test_update_has_the_bits_of_a_nan_zeroing_blend():
    # a NaN mean is a posterior only where info is 0, where an observed
    # flow's mean becomes y outright: the update needs no NaN rule of its
    # own, and matches a blend that first sets NaN means to 0
    rng = np.random.default_rng(5)
    info = rng.uniform(0.0, 3.0, (4, 6))
    info[:, :2] = 0.0
    mean = rng.normal(100.0, 10.0, (4, 6))
    mean[:, 0] = np.nan
    m = rng.uniform(0.0, 2.0, (4, 6))
    m[::2, ::3] = 0.0
    y = np.where(m > 0, rng.normal(100.0, 10.0, (4, 6)), np.nan)
    sigma2 = rng.uniform(0.1, 1.0, 6)
    observed = m > 0
    info_new = predicted_info(info, sigma2) + m
    gain = np.divide(m, info_new, out=np.zeros(info_new.shape), where=observed)
    resid = np.where(observed & np.isnan(mean), 0.0, mean)
    blend = np.where(observed, resid + gain * (y - resid), mean)
    got_info, got_mean = filtering._update(info, mean, sigma2, m, y)
    assert got_info.tobytes() == info_new.tobytes()
    assert got_mean.tobytes() == np.where(observed & (info == 0), y, blend).tobytes()


def test_predict_update_validation():
    fm = fm2()
    s = diffuse(2)
    with pytest.raises(ValidationError):
        predict_update(*s, fm, m=[1.0, 1.0])  # missing y
    with pytest.raises(ValidationError):
        predict_update(*s, fm, m=[-1.0, 0.0], y=[0.0, 0.0])
    with pytest.raises(ValidationError):
        predict_update(*s, fm, m=[1.0], y=[0.0])
    with pytest.raises(ValidationError):
        predict_update(*s, fm, m=[1.0, 0.0], y=[np.nan, 0.0])
    with pytest.raises(ValidationError, match="one entry per flow"):
        predict_update(*s, fm, m=[1.0, 0.0], y=[0.0])
    with pytest.raises(ValidationError, match="disagree on n_r"):
        predict_update(*diffuse(3), fm, m=[0.0, 0.0])


def test_predict_update_checks_the_posterior():
    fm = FlowModel(sigma2=[1.0], mu=[10.0])
    with pytest.raises(ValidationError, match="information must be finite and >= 0"):
        predict_update([-1.0], [0.0], fm, m=[0.0])
    with pytest.raises(ValidationError, match="mean must be finite wherever info > 0"):
        predict_update([1.0], [np.nan], fm, m=[0.0])
    with pytest.raises(ValidationError, match="equal length"):
        predict_update([1.0, 1.0], [0.0], fm, m=[0.0])
    with pytest.raises(ValidationError, match="equal length"):
        predict_update([[1.0]], [[0.0]], fm, m=[0.0])  # one posterior, 1-D
    # NaN mean is fine while diffuse
    info, mean = predict_update([0.0], [np.nan], fm, m=[0.0])
    assert info[0] == 0.0 and np.isnan(mean[0])


def test_predicted_info_zero_is_fixed():
    assert predicted_info(np.zeros(3), np.ones(3)).tolist() == [0.0, 0.0, 0.0]


# -------------------------------------------------------------- steady state


def test_golden_ratio_case():
    # sigma2 = 1, m = 1: fixed point of u/(1+u) + 1 is the golden ratio
    assert steady_state_info(1.0, 1.0) == pytest.approx(
        (1 + np.sqrt(5)) / 2, rel=1e-15
    )


def test_quoted_example_value():
    v = steady_state_info(25.0, 0.01)
    assert v == pytest.approx(64.0388, abs=5e-5)
    assert v == pytest.approx(riccati_iterate(25.0, 0.01), rel=1e-11)
    assert v == pytest.approx(riccati_bisect(25.0, 0.01), rel=1e-11)


def test_zero_information_gives_zero():
    assert steady_state_info(0.0, 0.5) == 0.0


def test_against_both_oracles_across_regimes():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = 10.0 ** rng.uniform(-4, 4)
        s2 = 10.0 ** rng.uniform(-6, 4)
        closed = steady_state_info(m, s2)
        assert closed == pytest.approx(riccati_bisect(m, s2), rel=1e-10)
        if s2 * closed > 1e-3:  # plain iteration only trustworthy when quick
            assert closed == pytest.approx(riccati_iterate(m, s2), rel=1e-9)


def test_slow_contraction_corner():
    # sigma2 tiny and m small: plain iteration is useless here, the
    # bisection oracle is not.
    for m, s2 in [(0.01, 1e-6), (1.0, 1e-6), (0.5, 1e-5)]:
        assert steady_state_info(m, s2) == pytest.approx(
            riccati_bisect(m, s2), rel=1e-12
        )


def test_monotone_in_m_and_sigma2():
    ms = np.linspace(0.0, 50.0, 101)
    v = steady_state_info(ms, 0.1)
    assert np.all(np.diff(v) > 0)
    s2s = np.logspace(-4, 3, 50)
    w = steady_state_info(5.0, s2s)
    assert np.all(np.diff(w) < 0)


def test_bounds_and_large_sigma2_limit():
    # m <= m_tilde always; as sigma2 -> inf the filter forgets, m_tilde -> m
    for m in [0.1, 1.0, 10.0]:
        assert steady_state_info(m, 0.3) > m
        v = steady_state_info(m, 1e12)
        assert m <= v <= m + 1e-5


def test_fixed_point_identity():
    rng = np.random.default_rng(11)
    m = 10.0 ** rng.uniform(-3, 3, size=64)
    s2 = 10.0 ** rng.uniform(-4, 3, size=64)
    u = steady_state_info(m, s2)
    back = u / (1.0 + s2 * u) + m
    assert np.allclose(back, u, rtol=1e-10)


def test_steady_state_rejects_bad_sigma2():
    with pytest.raises(ValidationError):
        steady_state_info(1.0, 0.0)
    with pytest.raises(ValidationError):
        steady_state_info(1.0, -0.5)
    with pytest.raises(ValidationError):
        steady_state_info(-1.0, 0.5)
    with pytest.raises(ValidationError, match="^information must be >= 0$"):
        steady_state_info(np.nan, 1.0)
    with pytest.raises(ValidationError, match="^information must be >= 0$"):
        steady_state_info(np.array([1.0, np.nan]), 1.0)
    assert steady_state_info(np.inf, 1.0) == np.inf


def test_broadcasting_shapes():
    out = steady_state_info(np.ones((3, 2)), 0.5)
    assert out.shape == (3, 2)
    assert isinstance(steady_state_info(1.0, 0.5), float)


# -------------------------------------------------------------- iteration


def test_recursion_contracts_from_any_start():
    # three different priors end at the same limit
    fm = FlowModel(sigma2=[0.5], mu=[100.0])
    target = steady_state_info(4.0, 0.5)
    for start in [0.0, 1.0, 250.0]:
        info = np.array([start])
        for _ in range(200):
            info = info / (1.0 + fm.sigma2 * info) + 4.0
        assert info[0] == pytest.approx(target, rel=1e-12)


def test_predict_update_reproduces_recursion_trajectory():
    fm = FlowModel(sigma2=[0.3, 2.0], mu=[50.0, 50.0])
    m = np.array([2.0, 0.7])
    state = diffuse(2)
    info = np.zeros(2)
    rng = np.random.default_rng(3)
    for _ in range(25):
        y = rng.normal(size=2)
        state = predict_update(*state, fm, m, y=y)
        info = info / (1.0 + fm.sigma2 * info) + m
        assert np.allclose(state[0], info, rtol=1e-14)
