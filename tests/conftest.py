import os
from pathlib import Path

import pytest

import algindex
from algindex import algebroid as alg
from algindex.chern_weil import Metric
from algindex.scalars import Chart

# the processes the tests start (the CLI, the demos) import this same algindex
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(algindex.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def su2():
    return alg.su2()


@pytest.fixture(scope="session")
def aff1():
    return alg.aff1()


@pytest.fixture(scope="session")
def t2():
    return alg.tangent(2)


@pytest.fixture(scope="session")
def so3_action():
    """so(3) acting on R^3 by (negated) rotation fields."""
    ch = Chart(("x", "y", "z"))
    x, y, z = (ch.coord(i) for i in range(3))
    zero = ch.zero()
    fields = [[zero, z, -y], [-z, zero, x], [y, -x, zero]]
    structure = {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}
    return alg.action_algebroid(structure, fields, ch, "so3-action")


@pytest.fixture(scope="session")
def sphere_metric(t2):
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    u = 1 + x * x + y * y
    return Metric.conformal(t2, t2.chart.const(4) / (u * u))


@pytest.fixture(scope="session")
def pullback_su2(su2):
    return alg.pullback(su2, su2.rank)
