"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler

import numpy as np
import pytest

from repro.graph.uncertain_graph import UncertainGraph, example_graph


def pytest_configure(config: "pytest.Config") -> None:
    config.addinivalue_line(
        "markers",
        "watchdog(seconds): dump all thread stacks and abort the test run if "
        "the marked test exceeds the deadline (stdlib faulthandler — guards "
        "concurrent suites against deadlocks without external plugins)",
    )
    config.addinivalue_line(
        "markers",
        "slow: a long statistical sweep, deselected unless a -m expression is "
        "given (run it with `pytest -m slow`)",
    )


def pytest_collection_modifyitems(
    config: "pytest.Config", items: "list[pytest.Item]"
) -> None:
    """Deselect ``slow`` tests unless the run picks tests by marker."""
    if config.getoption("markexpr"):
        return
    slow = [item for item in items if item.get_closest_marker("slow")]
    if slow:
        config.hook.pytest_deselected(items=slow)
        items[:] = [item for item in items if not item.get_closest_marker("slow")]


@pytest.fixture(autouse=True)
def _watchdog(request: "pytest.FixtureRequest"):
    """Per-test deadlock guard for concurrency-heavy suites.

    Tests (or classes/modules) marked ``@pytest.mark.watchdog(seconds)`` arm
    :func:`faulthandler.dump_traceback_later`: if the test is still running
    when the deadline passes, every thread's stack is dumped to stderr and
    the process exits — turning a silent CI hang (stuck ingest barrier,
    leaked lock) into an actionable traceback.  Unmarked tests pay nothing.
    """
    marker = request.node.get_closest_marker("watchdog")
    if marker is None:
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 120.0
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def paper_graph() -> UncertainGraph:
    """The five-vertex graph modelled on Fig. 1(a) of the paper."""
    return example_graph()


@pytest.fixture
def triangle_graph() -> UncertainGraph:
    """A directed triangle with a self-loop — smallest graph with short cycles.

    Short cycles are exactly the structures for which ``W(k) != (W(1))^k``,
    so this graph exercises the paper's central claim.
    """
    graph = UncertainGraph()
    graph.add_arc("a", "b", 0.9)
    graph.add_arc("b", "c", 0.8)
    graph.add_arc("c", "a", 0.7)
    graph.add_arc("a", "a", 0.5)
    graph.add_arc("b", "a", 0.6)
    return graph


@pytest.fixture
def chain_graph() -> UncertainGraph:
    """An acyclic chain a → b → c → d (girth = None, no revisits possible)."""
    graph = UncertainGraph()
    graph.add_arc("a", "b", 0.9)
    graph.add_arc("b", "c", 0.5)
    graph.add_arc("c", "d", 0.7)
    return graph


@pytest.fixture
def certain_graph() -> UncertainGraph:
    """An uncertain graph whose arcs all have probability 1 (Theorem 3 setting)."""
    graph = UncertainGraph()
    arcs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "d"), ("d", "a")]
    for u, v in arcs:
        graph.add_arc(u, v, 1.0)
    return graph


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


def small_random_uncertain_graph(
    num_vertices: int, arc_probability: float, seed: int
) -> UncertainGraph:
    """Helper used by several test modules to build small random graphs."""
    generator = np.random.default_rng(seed)
    graph = UncertainGraph(vertices=range(num_vertices))
    for u in range(num_vertices):
        for v in range(num_vertices):
            if u != v and generator.random() < arc_probability:
                graph.add_arc(u, v, float(generator.uniform(0.1, 1.0)))
    return graph
