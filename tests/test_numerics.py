import errno
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from scipy.special import erf, erfinv

from conftest import assert_no_child_left, fail_helper_blocks, set_csv_cpus
from fxtsmc import cli
from fxtsmc.errors import ConfigError, ParameterError, SimulationDivergedError
from fxtsmc.numerics import (
    CSV_BLOCK_ROWS, EXP_CLAMP, CsvStream, StepConfig, safe_exp, write_csv_rows,
)
from fxtsmc.sim import Scenario, simulate
from fxtsmc.system import SystemModel, make_lemma2_plant, zero_reference


def test_safe_exp_values():
    assert safe_exp(0.0) == 1.0
    assert safe_exp(1.0) == pytest.approx(np.e, rel=1e-15)
    assert safe_exp(1000.0) == np.exp(EXP_CLAMP)


def test_safe_exp_always_finite():
    x = np.array([-1e308, -50.0, 0.0, 49.0, 50.0, 51.0, 700.0, 1e308])
    assert np.all(np.isfinite(safe_exp(x)))


def test_step_config_basics():
    cfg = StepConfig(step_size=1e-4, t_end=1.0)
    assert cfg.n_steps == 10000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step_size": 0.0, "t_end": 1.0},
        {"step_size": -1e-4, "t_end": 1.0},
        {"step_size": 1e-4, "t_end": -0.5},
        {"step_size": 1e-4, "t_end": float("nan")},
        {"step_size": 0.1, "t_end": 0.35},  # off the step grid
    ],
)
def test_step_config_rejects_bad_inputs(kwargs):
    # the schema refuses a step or horizon that is not positive and finite,
    # StepConfig a horizon off the step grid; both are exit 2
    cfg = {"system": {"builtin": "pmsm"}, "sim": kwargs}
    with pytest.raises((ConfigError, ParameterError)):
        cli.validate_config(cfg)
        cli.build_step(cfg)


def test_step_config_accepts_rounded_grid():
    # 0.3 is not exactly representable; the grid check must tolerate that.
    cfg = StepConfig(step_size=0.1, t_end=0.3)
    assert cfg.n_steps == 3


# --- stepping (done by the simulation engine) ----------------------------------


def open_loop(drift, x0, step_size, t_end, perturbation=None):
    """Uncontrolled run of x' = drift(x) + perturbation(t) on the engine."""
    n = len(x0)
    zeros = np.zeros(n)
    model = SystemModel(
        n=n,
        drift=drift,
        perturbation=perturbation or (lambda t: zeros),
        perturbation_bounds=np.full(n, np.inf),  # no bound declared
        name="open-loop",
    )
    scenario = Scenario(
        system=model,
        reference=zero_reference(n),
        params=None,
        x0=np.asarray(x0, dtype=float),
        step=StepConfig(step_size=step_size, t_end=t_end),
        mode="open-loop",
    )
    return simulate(scenario)


def test_integrate_step_zero_derivative():
    traj = open_loop(lambda x: np.zeros(1), [3.0], 0.5, 1.0)
    assert traj.x[1, 0] == 3.0


def test_integrate_step_euler_constant_rate():
    traj = open_loop(lambda x: np.ones(1), [0.0], 0.1, 1.0)
    assert traj.x[1, 0] == pytest.approx(0.1, abs=1e-15)


def test_convergence_order_on_the_lemma2_oracle():
    # Open loop from x0 = 1 the lemma2 plant has erf(x(t)) = erf(1) - t; up to
    # t = 0.4 x stays away from the sign switch at 0, so each halving of h
    # must cut the error at t = 0.4 by 2**order, order 1 for euler.
    drift = make_lemma2_plant(1.0).drift
    exact = erfinv(erf(1.0) - 0.4)
    errors = [
        abs(open_loop(drift, [1.0], h, 0.4).x[-1, 0] - exact)
        for h in 0.02 / 2.0 ** np.arange(5)
    ]
    observed = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((0.95 <= observed) & (observed <= 1.05)), observed


def test_integrate_step_reports_non_finite_channel():
    def perturbation(t):
        return np.where(np.asarray(t)[..., None] >= 0.25, [0.0, np.inf, 0.0], 0.0)

    with pytest.raises(SimulationDivergedError, match=r" in channel 2 .* at t = 0\.25$"):
        open_loop(lambda x: np.zeros(3), np.zeros(3), 0.25, 1.0, perturbation=perturbation)


# Eight blocks of about 110 kB of text each, more than a pipe holds.
CSV_COLUMNS = [np.random.default_rng(0).normal(size=(8 * CSV_BLOCK_ROWS, 20))]


def streamed_export(fh, columns=CSV_COLUMNS):
    """Write ``columns`` to ``fh`` through a stream whose helper was forked
    over them with every row final, as a run's rows are at its end."""
    with CsvStream() as stream:
        stream.start(columns)
        write_csv_rows(fh, columns, stream)


def serial_export(path, monkeypatch):
    set_csv_cpus(monkeypatch, 1)
    with path.open("w") as fh:
        streamed_export(fh)
    return path.read_bytes()


def test_a_failing_csv_helper_is_an_oserror_naming_the_file(tmp_path, monkeypatch):
    forks = set_csv_cpus(monkeypatch, 2)
    fail_helper_blocks(monkeypatch)
    path = tmp_path / "rows.csv"
    with path.open("w") as fh, pytest.raises(OSError) as err:
        streamed_export(fh)
    assert str(err.value) == f"{path}: the CSV format helper stopped before its last block"
    assert len(forks) == 1
    assert_no_child_left()


class FullFile(io.StringIO):
    """A text file that takes one write and then reports a full disk."""

    name = "full.csv"

    def write(self, text):
        if self.tell():
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_a_failing_csv_write_propagates_and_the_helper_is_reaped(monkeypatch):
    forks = set_csv_cpus(monkeypatch, 2)
    with pytest.raises(OSError, match="No space left on device"):
        streamed_export(FullFile())
    assert len(forks) == 1
    assert_no_child_left()


def test_a_csv_export_that_cannot_fork_formats_every_block_itself(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    pipes = []
    pipe = os.pipe
    set_csv_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", no_fork)
    with (tmp_path / "rows.csv").open("w") as fh:
        streamed_export(fh)
    for fd in pipes[0]:  # both ends closed
        with pytest.raises(OSError):
            os.fstat(fd)
    assert (tmp_path / "rows.csv").read_bytes() == serial_export(tmp_path / "ref.csv", monkeypatch)


def test_a_csv_export_without_a_spool_formats_every_block_itself(tmp_path, monkeypatch):
    def no_spool():
        raise OSError(errno.ENOSPC, "No space left on device")

    forks = set_csv_cpus(monkeypatch, 2)
    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    with (tmp_path / "rows.csv").open("w") as fh:
        streamed_export(fh)
    assert forks == []
    assert (tmp_path / "rows.csv").read_bytes() == serial_export(tmp_path / "ref.csv", monkeypatch)


def test_a_stream_left_before_its_export_reaps_its_helper(monkeypatch):
    # as when a run diverges or is interrupted while the helper formats
    forks = set_csv_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt), CsvStream() as stream:
        stream.start(CSV_COLUMNS)
        stream.note(4 * CSV_BLOCK_ROWS)
        raise KeyboardInterrupt
    assert len(forks) == 1
    assert_no_child_left()


def test_a_fork_that_warns_as_python_3_12_does_still_exports(tmp_path, monkeypatch):
    # From Python 3.12, os.fork in a process with threads (OpenBLAS's after
    # a GP fit) warns in the parent once the child exists; under an error
    # filter, as in this suite, the parent would lose its child.
    def fork_and_warn():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    forks = set_csv_cpus(monkeypatch, 2)
    fork = os.fork
    monkeypatch.setattr(os, "fork", fork_and_warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with (tmp_path / "rows.csv").open("w") as fh:
            streamed_export(fh)
    assert len(forks) == 1
    assert_no_child_left()
    assert (tmp_path / "rows.csv").read_bytes() == serial_export(tmp_path / "ref.csv", monkeypatch)
