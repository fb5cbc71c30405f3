"""Deterministic on-disk snapshots of solver trajectories.

One ``.npz`` file per trajectory: time grid, stacked state and derivative
arrays, grid geometry, weight exponents, a format version string, and a
JSON metadata blob.  Saving the same trajectory twice produces byte-identical
files, so reruns can be compared with a plain hash.  Files are written to a
temporary name beside the target and renamed into place, so a crash never
leaves a half-written checkpoint under the target's name.
"""

from __future__ import annotations

import json
import os
import zipfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from .norms import WeightedTrajectory

FORMAT_VERSION = "1"


class CheckpointError(RuntimeError):
    """Unreadable, incompatible, or malformed checkpoint file."""


@contextmanager
def atomic_open(path):
    """A binary file handle on a temporary file beside ``path``; once the
    block completes, the file replaces ``path`` in one rename.  An open file
    object passed as ``path`` is written as it is."""
    if hasattr(path, "write"):
        yield path
        return
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def save_trajectory(path, traj: WeightedTrajectory, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    grid = traj.grid
    # an open file, because np.savez appends ".npz" to a path without it
    with atomic_open(path) as fh:
        np.savez(
            fh,
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
    """Read a checkpoint back; returns (trajectory, meta).

    A file that cannot be read as a checkpoint (truncated, not a zip file,
    malformed arrays, or a meta that is not a JSON object) raises
    ``CheckpointError``.
    """
    try:
        # np.load leaves a file it opened itself open when the zip is bad,
        # so a path is opened here; an open file object is read as it is
        source = nullcontext(path) if hasattr(path, "read") else open(path, "rb")
        with source as fh, np.load(fh, allow_pickle=False) as data:
            missing = {"format_version", "times", "states", "derivs", "dim",
                       "nodes", "mu", "p"} - set(data.files)
            if missing:
                raise CheckpointError(f"checkpoint {path} lacks fields {sorted(missing)}")
            version = str(data["format_version"])
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint format {version!r} is not supported "
                    f"(expected {FORMAT_VERSION!r})"
                )
            # the grid is read off the stacked arrays; dim and nodes repeat it
            traj = WeightedTrajectory(data["times"], data["states"], data["derivs"],
                                      float(data["mu"]), float(data["p"]))
            meta = json.loads(str(data["meta"])) if "meta" in data.files else {}
            if not isinstance(meta, dict):
                raise CheckpointError(f"checkpoint {path}: meta is not a JSON object")
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return traj, meta
