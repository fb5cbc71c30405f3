"""Deterministic on-disk snapshots of solver trajectories.

One ``.npz`` file per trajectory: time grid, stacked state and derivative
arrays, grid geometry, weight exponents, a format version string, and a
JSON metadata blob.  Saving the same trajectory twice produces byte-identical
files, so reruns can be compared with a plain hash.
"""

from __future__ import annotations

import json

import numpy as np

from .norms import WeightedTrajectory

FORMAT_VERSION = "1"


class CheckpointError(RuntimeError):
    """Unreadable, incompatible, or malformed checkpoint file."""


def save_trajectory(path, traj: WeightedTrajectory, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    grid = traj.grid
    np.savez(
        path,
        format_version=np.array(FORMAT_VERSION),
        meta=np.array(json.dumps(meta, sort_keys=True)),
        times=np.asarray(traj.times, dtype=float),
        states=np.ascontiguousarray(traj.state_values),
        derivs=np.ascontiguousarray(traj.deriv_values),
        dim=np.array(grid.dim),
        nodes=np.array(grid.nodes_per_axis),
        mu=np.array(float(traj.mu)),
        p=np.array(float(traj.p)),
    )


def load_trajectory(path):
    """Read a checkpoint back; returns (trajectory, meta)."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with data:
        missing = {"format_version", "times", "states", "derivs", "dim",
                   "nodes", "mu", "p"} - set(data.files)
        if missing:
            raise CheckpointError(f"checkpoint {path} lacks fields {sorted(missing)}")
        version = str(data["format_version"])
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {version!r} is not supported (expected {FORMAT_VERSION!r})"
            )
        # the grid is read off the stacked arrays; dim and nodes repeat it
        traj = WeightedTrajectory(data["times"], data["states"], data["derivs"],
                                  float(data["mu"]), float(data["p"]))
        meta = json.loads(str(data["meta"])) if "meta" in data.files else {}
    return traj, meta
