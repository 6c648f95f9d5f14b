"""Seeded sampler for the unit sphere.

Streams come from a counter-based generator keyed by the seed, so results
for a given (seed, count) are reproducible and independent of how callers
chunk the work.
"""

from __future__ import annotations

import numpy as np


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere: normalized standard-Gaussian triples."""
    g = rng.standard_normal((n, 3))
    norms = np.linalg.norm(g, axis=1)
    # A zero Gaussian triple has probability zero; keep the guard cheap.
    norms[norms < 1e-12] = 1.0
    return g / norms[:, None]

