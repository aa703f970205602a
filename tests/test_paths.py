import numpy as np
import pytest

from apmarkov.paths import Observable, SimulationError


def test_observable_bound_enforced():
    capped = Observable("capped", lambda x: x, bound=0.5)
    with pytest.raises(SimulationError):
        capped(np.array([0.2, 0.9]))
