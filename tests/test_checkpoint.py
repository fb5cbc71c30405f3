"""Checkpoint round-trip and determinism tests."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parabolab.checkpoint import (FORMAT_VERSION, CheckpointError,
                                  load_trajectory, save_trajectory)
from parabolab.grids import Grid
from parabolab.norms import WeightedTrajectory


def sample_traj(dim=1, nodes=12, ncomp=1, mu=0.9, p=2.0):
    grid = Grid(dim, nodes)
    rng = np.random.default_rng(42)
    times = np.array([0.0, 0.01, 0.03, 0.06])
    states = rng.normal(size=(len(times),) + grid.shape + (ncomp,))
    derivs = rng.normal(size=(len(times),) + grid.shape + (ncomp,))
    return WeightedTrajectory(times, states, derivs, mu, p)


def test_round_trip(tmp_path):
    traj = sample_traj()
    path = tmp_path / "snap.npz"
    meta = {"family": "heat", "seed": 3}
    save_trajectory(path, traj, meta)
    back, meta2 = load_trajectory(path)
    assert meta2 == meta
    assert np.array_equal(back.times, traj.times)
    assert back.mu == traj.mu and back.p == traj.p
    assert back.grid == traj.grid
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(back.deriv_values, traj.deriv_values):
        assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_round_trip_returns_identical_arrays(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 12), label="nodes"))
    ncomp = data.draw(st.integers(1, 2), label="ncomp")
    steps = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5), label="steps")
    times = np.concatenate([[0.0], np.cumsum(steps)])
    shape = (len(times),) + grid.shape + (ncomp,)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    traj = WeightedTrajectory(times, data.draw(arrays(np.float64, shape, elements=finite)),
                              data.draw(arrays(np.float64, shape, elements=finite)),
                              data.draw(st.floats(0.6, 1.0), label="mu"), 2.0)
    buf = io.BytesIO()
    save_trajectory(buf, traj, {"k": 1})
    buf.seek(0)
    back, meta = load_trajectory(buf)
    assert meta == {"k": 1}
    assert back.grid == traj.grid and back.mu == traj.mu and back.p == traj.p
    for name in ("times", "state_values", "deriv_values"):
        a, b = getattr(back, name), getattr(traj, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_round_trip_2d_multicomponent(tmp_path):
    traj = sample_traj(dim=2, nodes=9, ncomp=3)
    path = tmp_path / "snap2d.npz"
    save_trajectory(path, traj)
    back, meta = load_trajectory(path)
    assert meta == {}
    assert back.grid.dim == 2
    assert back.states[0].ncomp == 3
    assert np.array_equal(back.states[-1].values, traj.states[-1].values)


def test_byte_identical_rewrite(tmp_path):
    traj = sample_traj()
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    save_trajectory(a, traj, {"k": 1})
    save_trajectory(b, traj, {"k": 1})
    assert a.read_bytes() == b.read_bytes()


def test_meta_key_order_does_not_matter(tmp_path):
    traj = sample_traj()
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    save_trajectory(a, traj, {"x": 1, "y": 2})
    save_trajectory(b, traj, {"y": 2, "x": 1})
    assert a.read_bytes() == b.read_bytes()


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "partial.npz"
    np.savez(path, format_version=np.array(FORMAT_VERSION),
             times=np.array([0.0, 1.0]))
    with pytest.raises(CheckpointError) as exc:
        load_trajectory(path)
    assert "states" in str(exc.value)


def test_wrong_version_rejected(tmp_path):
    traj = sample_traj()
    path = tmp_path / "old.npz"
    save_trajectory(path, traj)
    data = dict(np.load(path))
    data["format_version"] = np.array("0")
    np.savez(path, **data)
    with pytest.raises(CheckpointError) as exc:
        load_trajectory(path)
    assert "not supported" in str(exc.value)


def test_unreadable_file_rejected(tmp_path):
    path = tmp_path / "noise.npz"
    path.write_text("this is not a checkpoint")
    with pytest.raises(CheckpointError):
        load_trajectory(path)
    with pytest.raises(CheckpointError):
        load_trajectory(tmp_path / "does_not_exist.npz")


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "snap.npz"
    save_trajectory(path, sample_traj())
    data = path.read_bytes()
    for size in (len(data) // 2, len(data) - 30, 10):
        path.write_bytes(data[:size])
        with pytest.raises(CheckpointError):
            load_trajectory(path)


def test_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "snap.npz"
    save_trajectory(path, sample_traj(), {"k": 1})
    before = path.read_bytes()
    savez = np.savez

    def savez_then_fail(file, **arrays):
        savez(file, **arrays)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError):
        save_trajectory(path, sample_traj(nodes=16), {"k": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["snap.npz"]
    # a path without the .npz suffix is written as named, with the same bytes
    bare = tmp_path / "bare"
    save_trajectory(bare, sample_traj(), {"k": 1})
    assert bare.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bare", "snap.npz"]


def test_meta_is_json_clean(tmp_path):
    # metadata survives as plain JSON, no pickling anywhere
    traj = sample_traj()
    path = tmp_path / "m.npz"
    save_trajectory(path, traj, {"nested": {"a": [1, 2]}, "f": 0.5})
    with np.load(path, allow_pickle=False) as data:
        parsed = json.loads(str(data["meta"]))
    assert parsed == {"nested": {"a": [1, 2]}, "f": 0.5}
