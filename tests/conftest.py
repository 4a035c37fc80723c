import json

import numpy as np
import pytest

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
