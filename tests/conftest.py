import signal

import pytest

from rotorwalk import (
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    solve_harmonic,
    weight_table,
)


def small_graphs():
    """Fixture set used across the suite; small enough for brute force."""
    return [
        build_path(3),
        build_path(4),
        build_lattice_ball(1, 2),
        build_lattice_ball(2, 2),
        build_bary_tree(2, 2),
    ]


def small_graph_ids():
    return [g.describe() for g in small_graphs()]


@pytest.fixture(params=small_graphs(), ids=small_graph_ids())
def small_graph(request):
    return request.param


@pytest.fixture
def p3():
    return build_path(3)


@pytest.fixture
def p3_solved(p3):
    g = p3
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    return g, mech, profile, wt


def pytest_configure(config):
    config.addinivalue_line("markers", "deadline(seconds): fail the test if it runs longer than that")


@pytest.fixture(autouse=True)
def deadline(request):
    """Turn a hang into a failure: in a test marked deadline(seconds), SIGALRM raises
    TimeoutError after that many seconds.  Unmarked tests run without an alarm."""
    marker = request.node.get_closest_marker("deadline")
    if marker is None:
        yield
        return
    seconds = marker.args[0]

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
