"""The result objects that hold arrays compare and hash by identity.

A dataclass's generated __eq__ would compare the array fields and raise
on their ambiguous truth value, and its __hash__ would raise on them.
"""

import numpy as np
import pytest

from blochquad import catalog, check_positivity, induced_qmap
from blochquad.dynamics import FixedComponent, fixed_set_sphere, iterate

# Each builds a new instance from scratch, so that two calls give equal but distinct results.
RESULTS = {
    "DeltaCoefficients": catalog.delta0,
    "QuadraticMapCoeffs": lambda: induced_qmap(catalog.delta0()),
    "Trajectory": lambda: iterate(induced_qmap(catalog.delta0()), [0.6, 0.8, 0.0], steps=3),
    "FixedSet": lambda: fixed_set_sphere(induced_qmap(catalog.delta0())),
    "FixedComponent": lambda: FixedComponent(np.zeros((1, 3)), np.ones(1), None),
    "Witness": lambda: check_positivity(catalog.delta0()).witness,
    "PositivityVerdict": lambda: check_positivity(catalog.delta0()),
}


@pytest.mark.parametrize("name", RESULTS)
def test_a_result_equals_itself_only_and_hashes(name):
    x, y = RESULTS[name](), RESULTS[name]()
    assert type(x).__name__ == name
    assert x == x and x != y
    assert x in [y, x] and x not in [y]
    assert {x: 1, y: 2}[x] == 1
