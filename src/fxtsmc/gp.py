"""Exact Gaussian-process regression, one scalar GP per state channel.

All channels share one input set, kernel and sigma_F, hence one Cholesky
factorization (``gp_fit`` once, then ``gp_fit_shared``) and one posterior
variance; each carries its own targets and weight vector. Inference is the
standard zero-mean exact form

    mean(x) = kbar(x)^T (K + sigma_F^2 I)^{-1} y
    var(x)  = k(x, x) - kbar(x)^T (K + sigma_F^2 I)^{-1} kbar(x)

computed through a Cholesky factorization of the (jittered) Gram matrix.
The factor is computed in the Gram matrix's own buffer, and the variance
audit of M states solves in one N x M block of kernel values. Only the
functions that call scipy import it, so a known-model run never loads it.
Models are immutable once fit; data changes mean a refit from scratch.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, IllConditionedDataError, ParameterError
from .numerics import check_ic_box, write_csv_rows
from .system import SystemModel

KERNEL_FAMILIES = ("exponential", "squared-exponential")

# Diagonal jitter ladder applied when sigma_F = 0 (or the factorization
# struggles): start at 1e-10, escalate tenfold, give up past 1e-6.
JITTER_START = 1e-10
JITTER_MAX = 1e-6


@dataclass(frozen=True)
class KernelConfig:
    """Stationary kernel choice.

    family "exponential" is k(x, x') = exp(-l * ||x - x'||); family
    "squared-exponential" is k(x, x') = exp(-||x - x'||^2 / (2 l^2)). Both
    satisfy k(x, x) = 1. Note the length scale multiplies the distance in the
    exponential family (an inverse length) but divides in the
    squared-exponential family, matching the forms as usually written.
    """

    family: str = "exponential"
    length_scale: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ParameterError(
                f"kernel family must be one of {KERNEL_FAMILIES}, got {self.family!r}"
            )
        if not (np.isfinite(self.length_scale) and self.length_scale > 0.0):
            raise ParameterError(f"length_scale must be positive, got {self.length_scale}")
        # the squared-exponential kernel divides by 2 l^2: no overflow, no 0
        with np.errstate(over="ignore", under="ignore"):
            two_l2 = 2.0 * np.float64(self.length_scale) ** 2
        if self.family == "squared-exponential" and not 0.0 < two_l2 < np.inf:
            raise ParameterError(
                f"squared-exponential 2 * length_scale**2 must be positive and finite, "
                f"got length_scale = {self.length_scale}"
            )


def _kernel_of_dist(cfg: KernelConfig, r: np.ndarray) -> np.ndarray:
    """The kernel of the distances ``r``, written into ``r`` and returned."""
    if cfg.family == "exponential":
        r *= -cfg.length_scale
    else:
        r *= r
        np.negative(r, out=r)
        r /= 2.0 * cfg.length_scale**2
    return np.exp(r, out=r)


@dataclass(frozen=True)
class GPDataset:
    """Training inputs (N x dim), one channel's targets (N,), and provenance.

    When sigma_F = 0 the inputs must be pairwise distinct, otherwise the Gram
    matrix is singular by construction.
    """

    inputs: np.ndarray
    targets: np.ndarray
    noise_std: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float).ravel()
        if inputs.shape[0] != targets.shape[0] or inputs.shape[0] < 1:
            raise ParameterError(
                f"need N >= 1 matching rows, got inputs {inputs.shape} targets {targets.shape}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ParameterError("dataset entries must be finite")
        if not self.noise_std >= 0.0:
            raise ParameterError(f"noise_std must be >= 0, got {self.noise_std}")
        noise = float(self.noise_std)
        if not np.isfinite(noise * noise):
            raise ParameterError(f"noise_std must have a finite square, got {self.noise_std}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ErrorBoundConfig:
    """Scale chi of the pointwise error bound chi * posterior_std."""

    chi: float = 2.0

    def __post_init__(self):
        if not self.chi > 0.0:
            raise ParameterError(f"chi must be positive, got {self.chi}")
        if self.chi == np.inf:
            raise ParameterError("chi must be finite, got inf")


@dataclass(frozen=True)
class GPModel:
    """A fitted channel: Cholesky factor of (K + sigma_F^2 I + jitter I), weights."""

    dataset: GPDataset
    kernel: KernelConfig
    chol_lower: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    jitter: float = 0.0


def _closest_pair(dist: np.ndarray, n: int):
    """Closest input pair and its distance, from pdist's condensed vector,
    whose row j holds the pairs (j, j + 1), (j, j + 2), ... from offset
    j (2n - j - 1) / 2."""
    i = int(np.argmin(dist))
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    j = int(np.searchsorted(starts, i, side="right")) - 1
    return (j, j + 1 + i - int(starts[j])), float(dist[i])


def gp_fit(dataset: GPDataset, cfg: KernelConfig) -> GPModel:
    """Factorize the Gram matrix and solve for the prediction weights.

    Parameters
    ----------
    dataset : GPDataset
        Shared inputs and one channel's targets.
    cfg : KernelConfig
        Kernel family and length scale.

    Returns
    -------
    GPModel
        Immutable fitted model.

    Raises
    ------
    IllConditionedDataError
        If the factorization fails after jitter escalation, or the dataset
        contains duplicate inputs with sigma_F = 0. The closest input pair is
        reported in both cases.
    """
    from scipy.linalg import cho_solve, cholesky
    from scipy.spatial.distance import pdist, squareform

    n = dataset.n_samples
    # pdist evaluates each unordered pair once, so K is symmetric by
    # construction; the kernel maps it once, and k(x, x) = 1 exactly.
    dist = pdist(dataset.inputs)
    if dataset.noise_std == 0.0 and n > 1:
        pair, dmin = _closest_pair(dist, n)
        if dmin == 0.0:
            raise IllConditionedDataError(
                f"inputs {pair[0]} and {pair[1]} are identical with sigma_F = 0; "
                "the Gram matrix is singular",
                pair=pair,
            )
    kern = _kernel_of_dist(cfg, dist)  # dist now holds the kernel values
    diag = dataset.noise_std**2
    jitter = JITTER_START if dataset.noise_std == 0.0 else 0.0
    while True:
        # K is exactly symmetric: LAPACK factors its Fortran-ordered transpose in
        # place. A failed attempt leaves it half overwritten; each builds K anew.
        gram = squareform(kern)
        np.fill_diagonal(gram, 1.0 + (diag + jitter))
        try:
            chol_lower = cholesky(gram.T, lower=True, overwrite_a=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            pass
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_MAX:
            pair, dmin = _closest_pair(pdist(dataset.inputs), n) if n > 1 else ((0, 0), 0.0)
            raise IllConditionedDataError(
                f"Gram matrix not positive definite after jitter up to {JITTER_MAX:g}; "
                f"closest input pair {pair[0]}, {pair[1]} at distance {dmin:.3g}",
                pair=pair,
            )
    weights = cho_solve((chol_lower, True), dataset.targets, check_finite=False)
    return GPModel(
        dataset=dataset, kernel=cfg, chol_lower=chol_lower, weights=weights, jitter=jitter
    )


def gp_fit_shared(base: GPModel, dataset: GPDataset, cfg: KernelConfig) -> GPModel:
    """Fit another channel on ``base``'s factorization: only its targets are solved.

    Bitwise equal to ``gp_fit(dataset, cfg)`` when the inputs, the kernel and
    sigma_F are those of ``base`` (the Gram matrix and its jitter are then the
    same); a ParameterError otherwise.
    """
    from scipy.linalg import cho_solve

    inputs = base.dataset.inputs
    if dataset.inputs is not inputs and not np.array_equal(dataset.inputs, inputs):
        raise ParameterError("gp_fit_shared requires the inputs of the base model")
    if cfg != base.kernel or dataset.noise_std != base.dataset.noise_std:
        raise ParameterError("gp_fit_shared requires the kernel and sigma_F of the base model")
    weights = cho_solve((base.chol_lower, True), dataset.targets, check_finite=False)
    return replace(base, dataset=dataset, weights=weights)


def _cross_kernel(model: GPModel, x) -> np.ndarray:
    """kbar(x): kernel between the query and every training input, shape (N,)."""
    from scipy.spatial.distance import cdist

    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    r = cdist(model.dataset.inputs, x).ravel()
    return _kernel_of_dist(model.kernel, r)


def gp_mean(model: GPModel, x) -> float:
    """Posterior mean kbar(x)^T weights at one query state."""
    return float(_cross_kernel(model, x) @ model.weights)


def _coincides(model: GPModel, states: np.ndarray) -> np.ndarray:
    """Boolean mask of query rows that exactly equal a training input."""
    return (states[:, None, :] == model.dataset.inputs[None, :, :]).all(axis=2).any(axis=1)


def variance_many(model: GPModel, states: np.ndarray) -> np.ndarray:
    """Posterior variance at each row of ``states``, floored at 0 against round-off.

    Noise-free regression interpolates exactly, so its variance at a stored
    training input is identically zero; without the short-circuit the
    factorization jitter would leak back in at exactly that scale.
    """
    from scipy.linalg import solve_triangular
    from scipy.spatial.distance import cdist

    states = np.atleast_2d(np.asarray(states, dtype=float))
    # an (N, M) Fortran-ordered block with the bits of cdist(inputs, states)
    kbar = _kernel_of_dist(model.kernel, cdist(states, model.dataset.inputs).T)
    v = solve_triangular(model.chol_lower, kbar, lower=True, overwrite_b=True, check_finite=False)
    out = np.maximum(0.0, 1.0 - np.einsum("ij,ij->j", v, v))
    if model.dataset.noise_std == 0.0:
        out[_coincides(model, states)] = 0.0
    return out


class DriftEstimator:
    """Per-step drift estimate inside a simulation: the per-channel posterior
    means stacked into one vector.

    Stacks every channel's weights against the common training inputs so one
    kernel evaluation per step serves all channels; ``gp_mean`` is the
    one-channel reference it agrees with. The inputs are held as a contiguous
    (dim, N) column array, so the squared distances to all N points take one
    whole-row operation per input dimension.
    """

    def __init__(self, models: Sequence[GPModel]):
        if len(models) < 1:
            raise ParameterError("need at least one channel model")
        base = models[0].dataset.inputs
        for m in models[1:]:
            if m.dataset.inputs is not base and not np.array_equal(m.dataset.inputs, base):
                raise ParameterError("DriftEstimator requires channels sharing one input set")
            if m.kernel != models[0].kernel:
                raise ParameterError("DriftEstimator requires a common kernel config")
        self.columns = np.ascontiguousarray(base.T)  # (dim, N)
        self.kernel = models[0].kernel
        self.weight_matrix = np.stack([m.weights for m in models])  # (n, N)

    def __call__(self, x) -> np.ndarray:
        """Estimate at one state (n,) or at each row of a block (..., n).

        Each row takes its own matrix-vector product: one matrix product over
        the block does not round like the per-row products do.
        """
        x = np.asarray(x)
        if x.ndim == 1:
            return self._estimate(x)
        rows = x.reshape(-1, x.shape[-1])
        return np.stack([self._estimate(row) for row in rows]).reshape(x.shape)

    def _estimate(self, x) -> np.ndarray:
        """The squared distance to every training point sums its per-dimension
        squares in one fixed order: the even-indexed dimensions in order, the
        odd-indexed ones in order, then the two partial sums. That is the
        order numpy's ``einsum("ij,ij->i")`` over (N, dim) rows takes for 1 to
        7 dimensions (numpy 2.4.6; from 8 on it differs), so those agree with
        it bit for bit, while einsum's inner loop runs once per training point."""
        sq = self.columns - x[:, None]
        sq *= sq
        r2 = sq[0]
        for row in sq[2::2]:
            r2 += row
        if len(sq) > 1:
            odd = sq[1]
            for row in sq[3::2]:
                odd += row
            r2 += odd
        return self.weight_matrix @ _kernel_of_dist(self.kernel, np.sqrt(r2, out=r2))


def generate_training_data(
    model: SystemModel,
    n_samples: int,
    region,
    sigma_f: float = 0.0,
    seed: int = 0,
) -> list[GPDataset]:
    """Sample seeded-uniform inputs in a box and record noisy drift targets.

    ``region`` is a per-dimension sequence of (low, high) pairs. Targets are
    y_i = f_i(x) + w with w ~ Normal(0, sigma_f^2), drawn from a generator
    seeded with ``seed`` so repeat calls are byte-identical.
    """
    region = check_ic_box(region, model.n, "region")
    if np.any(region[:, 1] == region[:, 0]):
        raise ParameterError(
            f"region must be {model.n} non-degenerate (low, high) pairs, got {region.tolist()}"
        )
    if n_samples < 1:
        raise ParameterError(f"need n_samples >= 1, got {n_samples}")
    if sigma_f < 0.0:
        raise ParameterError(f"sigma_f must be >= 0, got {sigma_f}")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(region[:, 0], region[:, 1], size=(n_samples, model.n))
    noise = rng.normal(0.0, sigma_f, size=(n_samples, model.n)) if sigma_f > 0.0 else None
    drifts = model.drift(inputs)
    targets = drifts if noise is None else drifts + noise
    return [
        GPDataset(inputs=inputs, targets=targets[:, i], noise_std=sigma_f, seed=seed)
        for i in range(model.n)
    ]


# --- persistence --------------------------------------------------------------


def save_datasets(datasets: Sequence[GPDataset], csv_path, metadata: Optional[dict] = None):
    """Write shared-input channel datasets as one CSV plus a JSON sidecar.

    The CSV has header x1..xn,y1..yn with one row per sample, 17 significant
    digits. The sidecar (same path with a .meta.json suffix appended) records
    seed, sigma_F, and whatever extra metadata the caller supplies.
    """
    csv_path = Path(csv_path)
    inputs = datasets[0].inputs
    dim = inputs.shape[1]
    n_channels = len(datasets)
    for ds in datasets[1:]:
        if not np.array_equal(ds.inputs, inputs):
            raise ParameterError("save_datasets requires channels sharing one input set")
    # rows end in CRLF, the line terminator of the csv module that reads them back
    with csv_path.open("w", newline="\r\n") as fh:
        names = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(n_channels)]
        fh.write(",".join(names) + "\n")
        write_csv_rows(fh, [inputs] + [ds.targets for ds in datasets])
    meta = {
        "n_samples": int(inputs.shape[0]),
        "dim": int(dim),
        "n_channels": int(n_channels),
        "sigma_f": float(datasets[0].noise_std),
        "seed": datasets[0].seed,
    }
    if metadata:
        meta.update(metadata)
    sidecar = csv_path.with_name(csv_path.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_datasets(csv_path) -> tuple[list[GPDataset], dict]:
    """Read back datasets written by save_datasets, with their metadata.

    A header other than x1..xd, y1..yc, a malformed row or a malformed
    sidecar is a ConfigError naming the file (and the line, for a row).
    """
    csv_path = Path(csv_path)
    rows = []
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        dim = sum(1 for name in header if name.startswith("x"))
        n_channels = len(header) - dim
        names = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(n_channels)]
        if header != names or not (dim and n_channels):
            raise ConfigError(f"{csv_path}: the header must be x1..xd, y1..yc, got {header}")
        for row in reader:
            if not row:
                continue
            where = f"{csv_path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ConfigError(
                    f"{where}: {len(row)} cells, but the header has {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as err:
                raise ConfigError(f"{where}: {err}") from err
    if not rows:
        raise ConfigError(f"{csv_path}: dataset has a header but no data rows")
    data = np.asarray(rows, dtype=float)
    sidecar = csv_path.with_name(csv_path.name + ".meta.json")
    meta = {}
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except ValueError as err:
            raise ConfigError(f"{sidecar}: not valid JSON: {err}") from err
        if not isinstance(meta, dict):
            raise ConfigError(f"{sidecar}: top level must be a JSON object")
    try:
        sigma_f = float(meta.get("sigma_f", 0.0))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{sidecar}: sigma_f must be a number: {err}") from err
    seed = meta.get("seed")
    if seed is not None and not (
        isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0
    ):
        raise ConfigError(f"{sidecar}: seed must be a non-negative integer, got {seed!r}")
    datasets = [
        GPDataset(
            inputs=data[:, :dim], targets=data[:, dim + i], noise_std=sigma_f, seed=seed
        )
        for i in range(n_channels)
    ]
    return datasets, meta
