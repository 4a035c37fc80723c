"""Exact Gaussian-process regression: one GP, with a target column per channel.

The channels share one input set, kernel and sigma_F, so they share one
Cholesky factorization and one posterior variance; the factor solves every
target column at once into an (N, n) weight matrix. Inference is the
standard zero-mean exact form

    mean(x) = kbar(x)^T (K + sigma_F^2 I)^{-1} Y
    var(x)  = k(x, x) - kbar(x)^T (K + sigma_F^2 I)^{-1} kbar(x)

computed through a Cholesky factorization of the (jittered) Gram matrix.
The Gram matrix comes from one ``cdist`` of the inputs, mapped by the kernel
in that array's own buffer, and the factor is computed in the same buffer,
so a fit holds one N x N array at a time. The variance audit of M states
solves in one N x M block of kernel values; it is not split into chunks,
since a triangular solve over fewer columns does not round like the whole
block (at N = 2,000, chunks of 500 down to 1 of 1,001 states changed the
last bits of 1 to 889 of their variances). Only the functions that call
scipy import it, so a known-model run never loads it. Models are immutable
once fit; data changes mean a refit from scratch.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, IllConditionedDataError, ParameterError
from .numerics import check_ic_box, check_rows, write_csv_rows
from .system import SystemModel

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
    squared-exponential family, matching the forms as usually written. The
    config schema names the family and keeps the length scale positive and
    finite.
    """

    family: str = "exponential"
    length_scale: float = 1.0

    def __post_init__(self):
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
    """Training inputs (N x dim), targets (N x n), one column per channel, and
    provenance. A 1-D target is one column.

    When sigma_F = 0 the inputs must be pairwise distinct, otherwise the Gram
    matrix is singular by construction.
    """

    inputs: np.ndarray
    targets: np.ndarray
    noise_std: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float)
        if targets.ndim < 2:
            targets = targets.reshape(-1, 1)
        if targets.ndim != 2 or inputs.shape[0] != targets.shape[0] or targets.size == 0:
            raise ParameterError(
                f"need N >= 1 matching rows and a target column, got inputs {inputs.shape} "
                f"targets {targets.shape}"
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
class GPModel:
    """A fitted GP: Cholesky factor of (K + sigma_F^2 I + jitter I) and the
    (N, n) weights, one column per channel."""

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
        Inputs and a target column per channel.
    cfg : KernelConfig
        Kernel family and length scale.

    Returns
    -------
    GPModel
        Immutable fitted model; one solve of the factor gives every column.

    Raises
    ------
    IllConditionedDataError
        If the factorization fails after jitter escalation, or the dataset
        contains duplicate inputs with sigma_F = 0. The closest input pair is
        reported in both cases.
    """
    from scipy.linalg import cho_solve, cholesky
    from scipy.spatial.distance import cdist, pdist

    n = dataset.n_samples
    inputs = dataset.inputs
    if dataset.noise_std == 0.0 and n > 1:
        pair, dmin = _closest_pair(pdist(inputs), n)
        if dmin == 0.0:
            raise IllConditionedDataError(
                f"inputs {pair[0]} and {pair[1]} are identical with sigma_F = 0; "
                "the Gram matrix is singular",
            )
    diag = dataset.noise_std**2
    jitter = JITTER_START if dataset.noise_std == 0.0 else 0.0
    while True:
        # cdist(X, X) is exactly symmetric, each distance summing the same
        # squares in the same order both ways, and the kernel maps it in its
        # own buffer, so K is too: LAPACK factors its Fortran-ordered
        # transpose in place. A failed attempt leaves it half overwritten;
        # each builds K anew.
        gram = _kernel_of_dist(cfg, cdist(inputs, inputs))
        np.fill_diagonal(gram, 1.0 + (diag + jitter))
        try:
            chol_lower = cholesky(gram.T, lower=True, overwrite_a=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            del gram  # freed before the next attempt builds its own
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_MAX:
            pair, dmin = _closest_pair(pdist(inputs), n) if n > 1 else ((0, 0), 0.0)
            raise IllConditionedDataError(
                f"Gram matrix not positive definite after jitter up to {JITTER_MAX:g}; "
                f"closest input pair {pair[0]}, {pair[1]} at distance {dmin:.3g}",
            )
    weights = cho_solve((chol_lower, True), dataset.targets, check_finite=False)
    return GPModel(
        dataset=dataset, kernel=cfg, chol_lower=chol_lower, weights=weights, jitter=jitter
    )


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
    """Per-step drift estimate inside a simulation: the posterior mean of every
    channel as one vector.

    One kernel evaluation per step serves all channels. The inputs are held
    as a contiguous (dim, N) column array, so the squared distances to all N
    points take one whole-row operation per input dimension, into a (dim, N)
    scratch array the estimator owns.
    """

    def __init__(self, model: GPModel):
        self.columns = np.ascontiguousarray(model.dataset.inputs.T)  # (dim, N)
        self.kernel = model.kernel
        self.weight_matrix = np.ascontiguousarray(model.weights.T)  # (n, N)
        self.scratch = np.empty_like(self.columns)

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
        it bit for bit, while einsum's inner loop runs once per training point.
        Each dimension's difference is taken on its own row, which costs less
        than broadcasting the state over all of them."""
        sq = self.scratch
        for column, xi, row in zip(self.columns, x, sq):
            np.subtract(column, xi, out=row)
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
) -> GPDataset:
    """Sample seeded-uniform inputs in a box and record noisy drift targets.

    ``region`` is a per-dimension sequence of (low, high) pairs. Targets are
    y_i = f_i(x) + w with w ~ Normal(0, sigma_f^2), drawn from a generator
    seeded with ``seed`` so repeat calls are byte-identical. The config
    schema keeps ``n_samples`` >= 1 and ``sigma_f`` >= 0.
    """
    region = check_ic_box(region, model.n, "region")
    if np.any(region[:, 1] == region[:, 0]):
        raise ParameterError(
            f"region must be {model.n} non-degenerate (low, high) pairs, got {region.tolist()}"
        )
    rows = check_rows(n_samples, model.n, "a training set")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(region[:, 0], region[:, 1], size=(rows, model.n))
    noise = rng.normal(0.0, sigma_f, size=(rows, model.n)) if sigma_f > 0.0 else None
    drifts = model.drift(inputs)
    targets = drifts if noise is None else drifts + noise
    return GPDataset(inputs=inputs, targets=targets, noise_std=sigma_f, seed=seed)


# --- persistence --------------------------------------------------------------


def save_datasets(dataset: GPDataset, csv_path, metadata: Optional[dict] = None):
    """Write a dataset as one CSV plus a JSON sidecar.

    The CSV has header x1..xn,y1..yn with one row per sample, 17 significant
    digits. The sidecar (same path with a .meta.json suffix appended) records
    seed, sigma_F, and whatever extra metadata the caller supplies.
    """
    csv_path = Path(csv_path)
    inputs = dataset.inputs
    dim = inputs.shape[1]
    n_channels = dataset.targets.shape[1]
    # rows end in CRLF, the line terminator of the csv module that reads them back
    with csv_path.open("w", newline="\r\n") as fh:
        names = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(n_channels)]
        fh.write(",".join(names) + "\n")
        write_csv_rows(fh, [inputs, dataset.targets])
    meta = {
        "n_samples": int(inputs.shape[0]),
        "dim": int(dim),
        "n_channels": int(n_channels),
        "sigma_f": float(dataset.noise_std),
        "seed": dataset.seed,
    }
    if metadata:
        meta.update(metadata)
    sidecar = csv_path.with_name(csv_path.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_datasets(csv_path) -> tuple[GPDataset, dict]:
    """Read back a dataset written by save_datasets, with its metadata.

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
    dataset = GPDataset(inputs=data[:, :dim], targets=data[:, dim:], noise_std=sigma_f, seed=seed)
    return dataset, meta
