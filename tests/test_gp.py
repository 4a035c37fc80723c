import csv
import io
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cholesky, solve_triangular
from scipy.spatial.distance import cdist, pdist, squareform

from fxtsmc.errors import IllConditionedDataError, ParameterError
from fxtsmc.gp import (
    JITTER_MAX,
    JITTER_START,
    KERNEL_FAMILIES,
    DriftEstimator,
    ErrorBoundConfig,
    GPDataset,
    KernelConfig,
    generate_training_data,
    gp_error_bound,
    gp_fit,
    gp_fit_shared,
    gp_mean,
    kernel_eval,
    load_datasets,
    save_datasets,
    variance_many,
)
from fxtsmc.gp import _closest_pair
from fxtsmc.gp import _kernel_of_dist  # the Gram formula before condensed distances
from fxtsmc.numerics import CSV_BLOCK_ROWS
from fxtsmc.system import make_lemma2_plant, make_pmsm

EXP_KERNEL = KernelConfig(family="exponential", length_scale=1.0)


def variance_at(model, x):
    """Posterior variance at a single query state."""
    return variance_many(model, x)[0]


def pmsm_models(n_samples, sigma_f=0.0, seed=7, kernel=EXP_KERNEL):
    datasets = generate_training_data(
        make_pmsm(), n_samples, [(-3.0, 3.0)] * 3, sigma_f=sigma_f, seed=seed
    )
    return [gp_fit(ds, kernel) for ds in datasets]


# --- kernels -------------------------------------------------------------------


def test_kernel_eval_is_one_at_identical_inputs():
    rng = np.random.default_rng(5)
    for family in ("exponential", "squared-exponential"):
        cfg = KernelConfig(family=family, length_scale=0.7)
        for _ in range(5):
            x = rng.uniform(-3.0, 3.0, size=3)
            assert kernel_eval(cfg, x, x) == 1.0


def test_kernel_eval_formulas():
    assert kernel_eval(EXP_KERNEL, 0.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    sq = KernelConfig(family="squared-exponential", length_scale=1.0)
    assert kernel_eval(sq, 0.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-15)
    half = KernelConfig(family="exponential", length_scale=2.0)
    assert kernel_eval(half, 0.0, 1.0) == pytest.approx(np.exp(-2.0), rel=1e-15)


def test_kernel_eval_symmetric():
    rng = np.random.default_rng(6)
    for family in ("exponential", "squared-exponential"):
        cfg = KernelConfig(family=family, length_scale=1.3)
        for _ in range(10):
            a = rng.uniform(-5.0, 5.0, size=4)
            b = rng.uniform(-5.0, 5.0, size=4)
            assert kernel_eval(cfg, a, b) == kernel_eval(cfg, b, a)


def test_kernel_config_validation():
    with pytest.raises(ParameterError):
        KernelConfig(family="matern", length_scale=1.0)
    with pytest.raises(ParameterError):
        KernelConfig(family="exponential", length_scale=0.0)


@pytest.mark.parametrize("length_scale", [1e300, 1e-200], ids=["overflows", "rounds-to-0"])
def test_squared_exponential_length_scale_needs_a_positive_finite_divisor(length_scale):
    # the kernel divides by 2 l^2: 1e300 overflows it, and 1e-200 rounds it
    # to 0.0, which makes the kernel NaN at distance 0
    with pytest.raises(ParameterError, match=r"2 \* length_scale\*\*2"):
        KernelConfig(family="squared-exponential", length_scale=length_scale)
    # the exponential family multiplies the distance by l, and keeps both
    KernelConfig(family="exponential", length_scale=length_scale)


# --- fitting and closed forms ----------------------------------------------------


def test_fit_single_point_noise_free():
    ds = GPDataset(inputs=np.array([[0.0]]), targets=np.array([2.0]))
    model = gp_fit(ds, EXP_KERNEL)
    assert gp_mean(model, np.array([0.0])) == pytest.approx(2.0, abs=1e-8)
    assert variance_at(model, np.array([0.0])) == 0.0


def test_fit_single_point_noisy_closed_form():
    # K = 1, sigma^2 = 1: mean at the input is y/2, variance 1 - 1/2
    ds = GPDataset(inputs=np.array([[0.0]]), targets=np.array([2.0]), noise_std=1.0)
    model = gp_fit(ds, EXP_KERNEL)
    assert gp_mean(model, np.array([0.0])) == pytest.approx(1.0, rel=1e-12)
    assert variance_at(model, np.array([0.0])) == pytest.approx(0.5, rel=1e-12)


def test_fit_duplicate_inputs_raises_with_pair():
    ds = GPDataset(
        inputs=np.array([[1.0, 2.0], [0.5, -1.0], [1.0, 2.0]]),
        targets=np.array([1.0, 2.0, 3.0]),
    )
    with pytest.raises(IllConditionedDataError) as exc:
        gp_fit(ds, EXP_KERNEL)
    assert exc.value.pair == (0, 2)


def test_fit_duplicate_inputs_names_the_first_identical_pair():
    inputs = np.random.default_rng(13).uniform(-2.0, 2.0, size=(9, 3))
    inputs[7] = inputs[3]
    inputs[8] = inputs[5]
    ds = GPDataset(inputs=inputs, targets=np.zeros(9))
    with pytest.raises(IllConditionedDataError, match="inputs 3 and 7 are identical") as exc:
        gp_fit(ds, EXP_KERNEL)
    assert exc.value.pair == (3, 7)


@pytest.mark.parametrize("family", ["exponential", "squared-exponential"])
@pytest.mark.parametrize("sigma_f", [0.0, 0.3])
def test_fit_gram_from_condensed_distances_equals_full_gram(family, sigma_f):
    # Reference: the kernel of the full squareform distance matrix plus
    # (sigma_F^2 + jitter) I, factorized as the fit does.
    cfg = KernelConfig(family=family, length_scale=0.8)
    ds = generate_training_data(make_pmsm(), 60, [(-3.0, 3.0)] * 3, sigma_f=sigma_f, seed=4)[0]
    model = gp_fit(ds, cfg)
    gram = _kernel_of_dist(cfg, squareform(pdist(ds.inputs)))
    full = gram + (sigma_f**2 + model.jitter) * np.eye(60)
    np.testing.assert_array_equal(model.chol_lower, cholesky(full, lower=True))


def copy_kernel(cfg, r):
    """The kernel as it was computed before it wrote into its argument."""
    if cfg.family == "exponential":
        return np.exp(-cfg.length_scale * r)
    return np.exp(-(r * r) / (2.0 * cfg.length_scale**2))


def fresh_factor(ds, cfg, jitter):
    """Cholesky factor of a Gram matrix built anew for ``jitter``."""
    gram = squareform(copy_kernel(cfg, pdist(ds.inputs)))
    np.fill_diagonal(gram, 1.0 + (ds.noise_std**2 + jitter))
    return cholesky(gram, lower=True, check_finite=False)


def test_fit_retry_after_a_failed_factorization_factors_a_fresh_gram():
    # Ten trailing inputs repeat earlier ones and sigma_F^2 = 1e-24 vanishes
    # next to 1, so the jitter-free attempt meets a zero pivot after LAPACK
    # has overwritten the leading columns of its buffer.
    cfg = KernelConfig(family="squared-exponential", length_scale=0.7)
    rng = np.random.default_rng(5)
    inputs = rng.uniform(-2.0, 2.0, size=(100, 3))
    inputs[90:] = inputs[40:50]
    ds = GPDataset(inputs=inputs, targets=rng.normal(size=100), noise_std=1e-12)
    model = gp_fit(ds, cfg)
    assert model.jitter == JITTER_START  # the ladder starts at 0 when sigma_F > 0
    np.testing.assert_array_equal(model.chol_lower, fresh_factor(ds, cfg, model.jitter))


def test_fit_retries_factor_a_fresh_gram_after_each_failure(monkeypatch):
    # Each failed attempt leaves its buffer ruined; the third factors anew.
    # gp_fit imports cholesky when it is called, so the patch reaches it.
    real, attempts = scipy.linalg.cholesky, []

    def fail_twice(a, **kwargs):
        attempts.append(a.diagonal().copy())
        if len(attempts) <= 2:
            a[...] = np.nan
            raise np.linalg.LinAlgError("forced failure")
        return real(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", fail_twice)
    ds = generate_training_data(make_pmsm(), 40, [(-3.0, 3.0)] * 3, seed=4)[0]
    model = gp_fit(ds, EXP_KERNEL)
    assert model.jitter == 100.0 * JITTER_START
    assert [d[0] for d in attempts] == [1.0 + j for j in (1e-10, 1e-9, 1e-8)]
    np.testing.assert_array_equal(model.chol_lower, fresh_factor(ds, EXP_KERNEL, 1e-8))


def test_fit_jitter_exhausted_names_the_closest_pair(monkeypatch):
    def always_fail(a, **kwargs):
        a[...] = np.nan
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(scipy.linalg, "cholesky", always_fail)
    inputs = np.random.default_rng(13).uniform(-2.0, 2.0, size=(9, 3))
    inputs[6] = inputs[2] + 1e-3
    ds = GPDataset(inputs=inputs, targets=np.zeros(9))
    match = f"after jitter up to {JITTER_MAX:g}; closest input pair 2, 6 at distance 0.00173"
    with pytest.raises(IllConditionedDataError, match=match) as exc:
        gp_fit(ds, EXP_KERNEL)
    assert exc.value.pair == (2, 6)


@pytest.mark.parametrize("n", [2, 3, 7, 2000])
def test_closest_pair_is_the_triu_indices_pair(n):
    # Every condensed index for small n; for n = 2,000, both ends, the first
    # three row starts and the index before each, and the last three.
    rows, cols = np.triu_indices(n, 1)
    size = rows.size
    if n < 2000:
        picks = range(size)
    else:
        starts = np.flatnonzero(np.diff(rows)) + 1
        picks = {0, 1, size - 2, size - 1, *starts[:3], *(starts[:3] - 1), *starts[-3:]}
    dist = np.ones(size)
    for i in picks:
        dist[i] = 0.5
        assert _closest_pair(dist, n) == ((int(rows[i]), int(cols[i])), 0.5)
        dist[i] = 1.0


def test_closest_pair_allocates_no_index_table():
    # np.triu_indices(2000, 1) takes 32 MB; the row offsets take 16 kB.
    dist = np.ones(2000 * 1999 // 2)
    dist[-1] = 0.0
    tracemalloc.start()
    try:
        assert _closest_pair(dist, 2000) == ((1998, 1999), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def copy_variance(model, states):
    """The variance audit as it was computed on copies of its blocks."""
    kbar = copy_kernel(model.kernel, cdist(model.dataset.inputs, states))
    v = solve_triangular(model.chol_lower, kbar, lower=True, check_finite=False)
    out = np.maximum(0.0, 1.0 - np.einsum("ij,ij->j", v, v))
    if model.dataset.noise_std == 0.0:
        stored = (states[:, None, :] == model.dataset.inputs[None, :, :]).all(axis=2).any(axis=1)
        out[stored] = 0.0
    return out


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("sigma_f", [0.0, 0.05])
def test_variance_many_equals_the_copy_based_audit(family, sigma_f):
    cfg = KernelConfig(family=family, length_scale=0.8)
    ds = generate_training_data(make_pmsm(), 200, [(-3.0, 3.0)] * 3, sigma_f=sigma_f, seed=9)[0]
    model = gp_fit(ds, cfg)
    rng = np.random.default_rng(21)
    for m in (1, 2, 3, 257, 1001):
        states = rng.uniform(-4.0, 4.0, size=(m, 3))
        states[::7] = ds.inputs[: len(states[::7])]  # some stored inputs among them
        before = states.copy()
        got = variance_many(model, states)
        np.testing.assert_array_equal(got, copy_variance(model, before))
        np.testing.assert_array_equal(states, before)


def test_kernel_eval_equals_the_copy_based_kernel():
    rng = np.random.default_rng(8)
    configs = (EXP_KERNEL, KernelConfig("squared-exponential", 0.3), KernelConfig(length_scale=2.5))
    for cfg in configs:
        for a, b in [(0.0, 1.0), (-2.0, 3.5), (1e-9, 0.0)] + [
            tuple(rng.uniform(-3.0, 3.0, size=(2, 3))) for _ in range(20)
        ]:
            r = np.linalg.norm(np.atleast_1d(np.subtract(a, b, dtype=float)))
            assert kernel_eval(cfg, a, b) == float(copy_kernel(cfg, r))


def test_dataset_validation():
    with pytest.raises(ParameterError):
        GPDataset(inputs=np.zeros((2, 1)), targets=np.zeros(3))
    with pytest.raises(ParameterError):
        GPDataset(inputs=np.array([[np.nan]]), targets=np.zeros(1))
    with pytest.raises(ParameterError):
        GPDataset(inputs=np.zeros((1, 1)), targets=np.zeros(1), noise_std=-0.1)


@pytest.mark.parametrize("n_samples", [5, 50])
def test_noise_free_interpolation(n_samples):
    for model in pmsm_models(n_samples):
        for x, y in zip(model.dataset.inputs, model.dataset.targets):
            assert abs(gp_mean(model, x) - y) < 1e-8


def test_noise_free_jitter_is_minimal():
    for model in pmsm_models(20):
        assert model.jitter == 1e-10


def test_prior_recovered_far_from_data():
    model = pmsm_models(20)[0]
    far = np.array([40.0, -40.0, 40.0])
    assert abs(gp_mean(model, far)) <= 1e-10
    assert variance_at(model, far) == pytest.approx(1.0, abs=1e-10)


def test_fit_shared_rejects_other_inputs_kernel_or_noise():
    ds = generate_training_data(make_pmsm(), 10, [(-3.0, 3.0)] * 3, sigma_f=0.1, seed=6)[0]
    base = gp_fit(ds, EXP_KERNEL)
    moved = GPDataset(inputs=ds.inputs + 1e-9, targets=ds.targets, noise_std=0.1)
    quieter = GPDataset(inputs=ds.inputs, targets=ds.targets, noise_std=0.05)
    with pytest.raises(ParameterError, match="inputs"):
        gp_fit_shared(base, moved, EXP_KERNEL)
    with pytest.raises(ParameterError, match="kernel"):
        gp_fit_shared(base, ds, KernelConfig(family="exponential", length_scale=2.0))
    with pytest.raises(ParameterError, match="sigma_F"):
        gp_fit_shared(base, quieter, EXP_KERNEL)


def test_variance_zero_at_training_inputs_noise_free():
    for model in pmsm_models(10):
        for x in model.dataset.inputs:
            assert variance_at(model, x) == 0.0


def test_variance_nonnegative_and_decreases_with_data():
    model5, model50 = pmsm_models(5)[0], pmsm_models(50)[0]
    rng = np.random.default_rng(8)
    queries = rng.uniform(-3.0, 3.0, size=(100, 3))
    v5 = variance_many(model5, queries)
    v50 = variance_many(model50, queries)
    assert np.all(v5 >= 0.0)
    assert np.all(v50 >= 0.0)
    # the N=50 set contains the N=5 set (same seed), so variance cannot grow
    np.testing.assert_array_equal(
        model5.dataset.inputs, model50.dataset.inputs[:5]
    )
    assert np.all(v50 <= v5 + 1e-12)


def test_variance_non_increasing_after_one_observation():
    base = pmsm_models(30)[0]
    xnew = np.array([0.4, -0.2, 1.1])
    ynew = float(make_pmsm().drift(xnew)[0])
    grown = GPDataset(
        inputs=np.vstack([base.dataset.inputs, xnew]),
        targets=np.append(base.dataset.targets, ynew),
    )
    model1 = gp_fit(grown, EXP_KERNEL)
    rng = np.random.default_rng(9)
    queries = rng.uniform(-3.0, 3.0, size=(200, 3))
    v0 = variance_many(base, queries)
    v1 = variance_many(model1, queries)
    assert np.all(v1 <= v0 + 1e-12)


def test_permutation_invariance():
    base = pmsm_models(40, seed=9)[0]
    rng = np.random.default_rng(10)
    perm = rng.permutation(40)
    shuffled = gp_fit(
        GPDataset(inputs=base.dataset.inputs[perm], targets=base.dataset.targets[perm]),
        EXP_KERNEL,
    )
    queries = rng.uniform(-3.0, 3.0, size=(30, 3))
    for x in queries:
        assert abs(gp_mean(base, x) - gp_mean(shuffled, x)) < 1e-10
        assert abs(variance_at(base, x) - variance_at(shuffled, x)) < 1e-10


def test_error_bound():
    model = pmsm_models(10)[0]
    cfg = ErrorBoundConfig(chi=2.0)
    assert gp_error_bound(model, model.dataset.inputs[0], cfg) == 0.0
    far = np.array([40.0, 40.0, -40.0])
    assert gp_error_bound(model, far, cfg) == pytest.approx(2.0, abs=2e-10)
    doubled = ErrorBoundConfig(chi=4.0)
    x = np.array([0.3, 0.3, 0.3])
    assert gp_error_bound(model, x, doubled) == pytest.approx(
        2.0 * gp_error_bound(model, x, cfg), rel=1e-12
    )


def test_error_bound_config_validation():
    with pytest.raises(ParameterError):
        ErrorBoundConfig(chi=0.0)


# --- drift estimation -------------------------------------------------------------


def test_estimate_drift_zero_targets():
    inputs = np.random.default_rng(11).uniform(-2.0, 2.0, size=(8, 3))
    models = [
        gp_fit(GPDataset(inputs=inputs, targets=np.zeros(8)), EXP_KERNEL) for _ in range(3)
    ]
    out = DriftEstimator(models)(np.array([0.5, 0.5, 0.5]))
    np.testing.assert_allclose(out, np.zeros(3), atol=1e-8)


def test_estimate_drift_interpolates_pmsm():
    models = pmsm_models(50)
    x = models[0].dataset.inputs[17]
    np.testing.assert_allclose(DriftEstimator(models)(x), make_pmsm().drift(x), atol=1e-6)


def test_estimate_drift_requires_models():
    with pytest.raises(ParameterError):
        DriftEstimator([])


def test_drift_estimator_matches_estimate_drift():
    # gp_mean (cdist-based, one channel at a time) is the reference
    models = pmsm_models(30)
    estimator = DriftEstimator(models)
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, size=3)
        reference = np.array([gp_mean(m, x) for m in models])
        np.testing.assert_allclose(estimator(x), reference, rtol=1e-12, atol=1e-12)


def einsum_estimate(models, x):
    """Reference estimate at one state: the squared distances summed by
    einsum over (N, dim) rows. Also returns the kernel values and their
    exponent arguments, which size the tolerance where the order differs."""
    cfg = models[0].kernel
    diff = models[0].dataset.inputs - x
    r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    k = _kernel_of_dist(cfg, r.copy())
    if cfg.family == "exponential":
        arg = cfg.length_scale * r
    else:
        arg = r * r / (2.0 * cfg.length_scale**2)
    return np.stack([m.weights for m in models]) @ k, k, arg


def estimator_case(dim, family):
    rng = np.random.default_rng(100 + dim)
    inputs = rng.uniform(-3.0, 3.0, size=(40, dim))
    cfg = KernelConfig(family=family, length_scale=0.7 if family == "exponential" else 1.5)
    targets = np.sin(inputs @ rng.normal(size=(dim, dim)))  # one channel per dimension
    base = gp_fit(GPDataset(inputs, targets[:, 0]), cfg)
    models = [base] + [gp_fit_shared(base, GPDataset(inputs, y), cfg) for y in targets.T[1:]]
    # inside the data, and outside it, where kernel values fall below 1e-40
    states = np.vstack([
        rng.uniform(-3.0, 3.0, size=(20, dim)),
        rng.uniform(-3.0, 3.0, size=(20, dim)) + rng.choice([-1.0, 1.0], size=(20, dim)) * 4.0,
    ])
    return models, states


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("dim", range(1, 8))
def test_drift_estimator_equals_einsum_reference_bitwise(dim, family):
    # the column layout sums each squared distance in einsum's order for
    # 1 to 7 dimensions, so one-state and block calls both match it exactly
    models, states = estimator_case(dim, family)
    estimator = DriftEstimator(models)
    reference = np.stack([einsum_estimate(models, x)[0] for x in states])
    np.testing.assert_array_equal(np.stack([estimator(x) for x in states]), reference)
    np.testing.assert_array_equal(estimator(states), reference)
    np.testing.assert_array_equal(
        estimator(states.reshape(2, -1, dim)), reference.reshape(2, -1, dim)
    )


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("dim", [8, 12])
def test_drift_estimator_near_einsum_reference_past_seven_dims(dim, family):
    # A sum of dim nonnegative squares taken in another order differs by at
    # most dim * eps relative; the kernel's exp multiplies that by its
    # argument, and the final rounding adds about one more eps per term.
    eps = np.finfo(float).eps
    models, states = estimator_case(dim, family)
    estimator = DriftEstimator(models)
    weights = np.abs(np.stack([m.weights for m in models]))
    for x in states:
        reference, k, arg = einsum_estimate(models, x)
        tol = dim * eps * (weights @ (k * (1.0 + arg)))
        assert np.all(np.abs(estimator(x) - reference) <= tol)


# --- data generation and persistence --------------------------------------------


def test_generate_training_data_deterministic():
    a = generate_training_data(make_pmsm(), 12, [(-2.0, 2.0)] * 3, sigma_f=0.3, seed=21)
    b = generate_training_data(make_pmsm(), 12, [(-2.0, 2.0)] * 3, sigma_f=0.3, seed=21)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.inputs, db.inputs)
        np.testing.assert_array_equal(da.targets, db.targets)
    c = generate_training_data(make_pmsm(), 12, [(-2.0, 2.0)] * 3, sigma_f=0.3, seed=22)
    assert not np.array_equal(a[0].targets, c[0].targets)


def test_generate_training_data_shapes_and_metadata():
    datasets = generate_training_data(make_pmsm(), 50, [(-2.0, 2.0)] * 3, sigma_f=0.01, seed=1)
    assert len(datasets) == 3
    for ds in datasets:
        assert ds.inputs.shape == (50, 3)
        assert ds.targets.shape == (50,)
        assert ds.noise_std == 0.01
        assert ds.seed == 1
        assert np.all(ds.inputs >= -2.0) and np.all(ds.inputs <= 2.0)
    # channels share the input set
    np.testing.assert_array_equal(datasets[0].inputs, datasets[2].inputs)


def test_generate_noise_free_targets_are_exact_drift():
    datasets = generate_training_data(make_pmsm(), 10, [(-2.0, 2.0)] * 3, sigma_f=0.0, seed=2)
    drift = np.stack([make_pmsm().drift(x) for x in datasets[0].inputs])
    for i, ds in enumerate(datasets):
        np.testing.assert_array_equal(ds.targets, drift[:, i])


@pytest.mark.parametrize("plant", [make_pmsm(), make_lemma2_plant(1.0)], ids=["pmsm", "lemma2"])
def test_generate_noisy_targets_equal_per_row_drift_plus_noise(plant):
    region = [(-2.0, 2.0)] * plant.n
    datasets = generate_training_data(plant, 25, region, sigma_f=0.2, seed=8)
    rng = np.random.default_rng(8)
    inputs = rng.uniform(-2.0, 2.0, size=(25, plant.n))
    noise = rng.normal(0.0, 0.2, size=(25, plant.n))
    rows = np.stack([plant.drift(x) for x in inputs])
    for i, ds in enumerate(datasets):
        np.testing.assert_array_equal(ds.inputs, inputs)
        np.testing.assert_array_equal(ds.targets, rows[:, i] + noise[:, i])


def test_save_datasets_bytes_equal_a_csv_writer_reference(tmp_path):
    # finite values whose %.17g text is easy to get wrong, CRLF line ends
    awkward = [-0.0, 5e-324, 0.1, 1e-5, 1e16, 1e17, 1.0000000000000002, -1e300, 2.5]
    rng = np.random.default_rng(4)
    rows = 2 * CSV_BLOCK_ROWS + 1
    inputs = rng.normal(size=(rows, 3))
    inputs[:3] = np.reshape(awkward, (3, 3))
    targets = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-300, 300, size=(rows, 2))
    targets[0] = [-0.0, 5e-324]
    datasets = [GPDataset(inputs=inputs, targets=targets[:, i], seed=1) for i in range(2)]
    path = tmp_path / "train.csv"
    save_datasets(datasets, path)
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["x1", "x2", "x3", "y1", "y2"])
    for row in range(rows):
        writer.writerow([f"{v:.17g}" for v in list(inputs[row]) + list(targets[row])])
    assert path.read_bytes() == ref.getvalue().encode()
    assert path.read_bytes().count(b"\r\n") == rows + 1


def test_save_load_roundtrip(tmp_path):
    datasets = generate_training_data(make_pmsm(), 9, [(-2.0, 2.0)] * 3, sigma_f=0.05, seed=3)
    path = tmp_path / "train.csv"
    save_datasets(datasets, path, metadata={"note": "roundtrip"})
    loaded, meta = load_datasets(path)
    assert meta["note"] == "roundtrip"
    assert len(loaded) == 3
    for orig, back in zip(datasets, loaded):
        np.testing.assert_array_equal(orig.inputs, back.inputs)
        np.testing.assert_array_equal(orig.targets, back.targets)
        assert back.noise_std == orig.noise_std
        assert back.seed == orig.seed
