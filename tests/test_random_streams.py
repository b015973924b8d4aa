"""Tests for the named random stream factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.random_streams import RandomStreams


def test_same_name_returns_same_generator_instance():
    streams = RandomStreams(0)
    assert streams.get("a") is streams.get("a")


def test_same_seed_and_name_reproduce_draws():
    first = RandomStreams(42).get("scene").random(5)
    second = RandomStreams(42).get("scene").random(5)
    assert np.allclose(first, second)


def test_different_names_are_independent():
    streams = RandomStreams(42)
    a = streams.get("a").random(5)
    b = streams.get("b").random(5)
    assert not np.allclose(a, b)


def test_different_root_seeds_differ():
    a = RandomStreams(1).get("x").random(5)
    b = RandomStreams(2).get("x").random(5)
    assert not np.allclose(a, b)


def test_getitem_is_alias_for_get():
    streams = RandomStreams(5)
    assert streams["foo"] is streams.get("foo")


def test_spawn_creates_independent_child():
    parent = RandomStreams(7)
    child_a = parent.spawn("child")
    child_b = RandomStreams(7).spawn("child")
    assert np.allclose(child_a.get("x").random(3), child_b.get("x").random(3))
    assert not np.allclose(
        parent.get("x").random(3), RandomStreams(7).spawn("other").get("x").random(3)
    )


def test_reset_restarts_streams():
    streams = RandomStreams(3)
    first = streams.get("s").random(4)
    streams.reset()
    second = streams.get("s").random(4)
    assert np.allclose(first, second)


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan")])
def test_negative_seed_rejected(seed):
    # Without the integer check, 2.5 would replay seed 2 and NaN would
    # fail only inside ``int()``.
    with pytest.raises(ValueError):
        RandomStreams(seed)


def test_stream_consumption_does_not_affect_other_streams():
    streams = RandomStreams(11)
    streams.get("noisy").random(1000)
    after_noise = streams.get("quiet").random(5)
    fresh = RandomStreams(11).get("quiet").random(5)
    assert np.allclose(after_noise, fresh)
