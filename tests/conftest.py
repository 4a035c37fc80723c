import json
import os

import numpy as np
import pytest

from fxtsmc import numerics
from fxtsmc.controller import ControllerParams
from fxtsmc.system import ConstantGain, SystemModel, make_pmsm


def standard_gains(n=3, alpha2=4.0, d_bar=1.0, **kwargs):
    """The benchmark gain set (alpha1=6, alpha2=4, p/q=8/10, d_bar=1) on n channels."""
    return ControllerParams(n, alpha1=6.0, alpha2=alpha2, p=8, q=10, d_bar=d_bar, **kwargs)


def make_integrator_plant(n=1):
    """f = 0, g = 1, d = 0: the plant is just x' = u."""
    zeros = np.zeros(n)
    return SystemModel(
        n=n,
        drift=lambda x: zeros,
        gain=ConstantGain(np.ones(n)),
        perturbation=lambda t: zeros,
        perturbation_bounds=np.zeros(n),
        name="integrator",
    )


_FORK = os.fork


def set_csv_cpus(monkeypatch, cpus):
    """Make the CSV stream see ``cpus`` usable CPUs. The returned list gets an
    entry for each process forked, such as the stream's helper."""
    forks = []
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", lambda: forks.append(cpus) or _FORK())
    return forks


def fail_helper_blocks(monkeypatch):
    """Make the CSV block formatter raise in any process but this one, that
    is in the stream's helper, which formats every block of a streamed
    export."""
    format_block, parent = numerics._format_block, os.getpid()

    def format_in_parent(columns, start):
        if os.getpid() != parent:
            raise RuntimeError("made up")
        return format_block(columns, start)

    monkeypatch.setattr(numerics, "_format_block", format_in_parent)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pmsm():
    return make_pmsm()


@pytest.fixture
def write_config(tmp_path):
    def _write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg, indent=2))
        return path

    return _write
