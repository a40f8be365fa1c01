"""Bundled synthetic sensor network for experiments and tests.

A random geometric layout in the unit square, connected by a kNN graph.
The signal mixes a few low-frequency Laplacian eigenvectors with slow
sinusoidal time envelopes, plus white Gaussian noise, so it is smooth in
both space and time; reconstruction quality should improve monotonically
with sampling density on this data.
"""

from __future__ import annotations

import numpy as np

from .graph import NodePositions, build_knn_graph
from .ingest import Dataset
from .temporal import TimeVaryingSignal


def synthetic_dataset(
    n_nodes: int = 50,
    k: int = 5,
    n_steps: int = 100,
    n_modes: int = 3,
    noise_sigma: float = 0.05,
    seed: int = 0,
    name: str = "synthetic",
) -> Dataset:
    """Generate the bundled smooth synthetic dataset.

    Deterministic given the seed. Node positions are uniform in [0, 1]^2;
    the signal is sum_q a_q * u_q * sin(2*pi*f_q*t/M + phi_q) over the
    first n_modes nonconstant Laplacian eigenvectors u_q, with amplitudes
    a_q decreasing and f_q in {1, ..., n_modes} cycles per horizon, plus
    N(0, noise_sigma^2) noise.
    """
    if n_modes < 1 or n_modes >= n_nodes:
        raise ValueError(f"n_modes must be in [1, n_nodes), got {n_modes}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n_nodes, 2))
    node_ids = tuple(f"s{i:03d}" for i in range(n_nodes))
    positions = NodePositions(coords=coords, node_ids=node_ids)

    modes = build_knn_graph(positions, k).eigenvectors
    t = np.arange(n_steps)

    values = np.zeros((n_nodes, n_steps))
    for q in range(n_modes):
        mode = modes[:, q + 1]  # skip the constant eigenvector
        amplitude = float(n_modes - q)
        frequency = q + 1.0
        phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = np.sin(2.0 * np.pi * frequency * t / n_steps + phase)
        values += amplitude * np.outer(mode, envelope)
    values += rng.normal(0.0, noise_sigma, size=values.shape)

    return Dataset(
        positions=positions,
        signal=TimeVaryingSignal(values=values),
        native_mask=np.ones((n_nodes, n_steps), dtype=bool),
        name=name,
        time_indices=tuple(range(n_steps)),
    )
