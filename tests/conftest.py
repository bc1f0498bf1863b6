from dataclasses import replace
from pathlib import Path

import pytest

from ucplan import DemandProfile, GeneratorSpec, ProblemInstance

REPO_ROOT = Path(__file__).resolve().parents[1]
INSTANCES = REPO_ROOT / "instances"


def make_gen(
    id=0,
    a=0.01,
    b=10.0,
    c=100.0,
    e=100.0,
    f=50.0,
    g=0.1,
    h=0.2,
    p_min=10.0,
    p_max=100.0,
    t_up=2,
    t_down=2,
    initial_status=2,
):
    return GeneratorSpec(
        id=id, a=a, b=b, c=c, e=e, f=f, g=g, h=h,
        p_min=p_min, p_max=p_max, t_up=t_up, t_down=t_down,
        initial_status=initial_status,
    )


def make_instance(gens, demand, reserve=None):
    demand = tuple(float(d) for d in demand)
    if reserve is None:
        reserve = tuple(0.0 for _ in demand)
    return ProblemInstance(
        tuple(gens), DemandProfile(len(demand), demand, tuple(reserve))
    )


def cold_start(instance):
    """The same instance with every unit off and just free to start."""
    gens = tuple(replace(g, initial_status=-g.t_down) for g in instance.generators)
    return ProblemInstance(gens, instance.profile)


@pytest.fixture
def two_unit_instance():
    """Two comfortable units; every commitment pattern with at least one
    unit on is feasible at every hour."""
    gens = (
        make_gen(id=0, a=0.01, b=10.0, c=100.0, p_min=5.0, p_max=120.0),
        make_gen(id=1, a=0.02, b=12.0, c=80.0, p_min=5.0, p_max=110.0),
    )
    return make_instance(gens, demand=[60.0, 70.0, 80.0, 60.0], reserve=[6.0, 7.0, 8.0, 6.0])
