"""The sampled positivity oracles that check_positivity replaced, kept as references.

check_positivity_sampled is the screened oracle: probes, then `samples`
seeded sphere directions, each chunk after the first screened by a
certified shifted LDL^H pivot test (_clears) and eigen-solved only where
it may matter.  check_positivity_exhaustive solves every direction.  The
tests compare the proof in blochquad.positivity with both, and the two
with each other.  MC_PASS_DEVIATION and MC_VIOLATION_DEVIATION are the
thresholds the tests hold purity.monte_carlo_sphere, the sampled q-purity
reference, to.
"""

import numpy as np

from blochquad import channel, sampling
from blochquad.channel import DeltaCoefficients, induced_qmap
from blochquad.positivity import TOL_EIG, PositivityVerdict, Witness, _probe_directions
from blochquad.sampling import generator, sphere_points

# Thresholds for monte_carlo_sphere's sampled sphere deviation: rounding
# noise vs genuine sphere violation are separated by six orders of magnitude.
MC_PASS_DEVIATION = 1e-9
MC_VIOLATION_DEVIATION = 1e-3

# Sphere directions per oracle step.  2048 was the fastest of 1024-8192 in
# the oracle on 100k directions: larger chunks leave the cache.
CHUNK = 2048


def _batches(d: DeltaCoefficients, samples: int, seed: int):
    """The probe directions, then `samples` sphere points in chunks of CHUNK rows.

    A generator, so each chunk is drawn only when the caller goes on past
    the previous one.  The chunks come from one seeded stream, so they are
    the rows of sphere_points(generator(seed), samples) in order.
    """
    yield _probe_directions(induced_qmap(d))
    rng = sampling.generator(seed)
    for start in range(0, samples, CHUNK):
        yield sampling.sphere_points(rng, min(CHUNK, samples - start))


def _clears(X: np.ndarray, t: float, floor: float) -> np.ndarray:
    """Rows of the Hermitian stack X whose eigvalsh spectrum is certainly above t.

    A row clears when every pivot of the LDL^H factorisation of
    X - (t + floor) I, read from the lower triangle as eigvalsh reads it,
    exceeds floor.  With floor >= 256 eps * s, where s bounds ||X|| and |t|
    (derived in check_positivity_sampled), every eigenvalue eigvalsh
    computes for a cleared row is above t: a row whose eigvalsh minimum is
    at or below t never clears.
    A NaN pivot does not clear.  Once a row fails, its multipliers are
    zero; while it clears, its pivots above floor bound every multiplier by
    ||X|| / floor, so no entry overflows for ||X|| up to about 1e200.
    """
    n = len(X)
    A = np.ascontiguousarray(X.transpose(1, 2, 0))  # A[i, k] holds entry (i, k) of every row
    ok = np.ones(n, dtype=bool)
    for j in range(4):
        d = A[j, j].real - (t + floor)
        ok &= d > floor
        if j == 3:
            return ok
        r = np.divide(1.0, d, out=np.zeros(n), where=ok)
        for i in range(j + 1, 4):
            l = A[i, j] * r
            for k in range(j + 1, i + 1):
                A[i, k] -= l * A[k, j].conj()


def check_positivity_sampled(d: DeltaCoefficients, samples: int, seed: int) -> PositivityVerdict:
    """Sampled positivity oracle over the positive boundary inputs 1 + w.sigma.

    Scans the deterministic probes first (sphere violations of
    sphere-preserving operators occur at the quadratic coefficient
    directions) and, only when they all pass, `samples` seeded sphere
    directions.  Each direction w is scanned as +w, then -w, from one
    eigen solve: Delta(1) = 1(x)1, so Delta(1 - w.sigma) =
    2*1(x)1 - Delta(1 + w.sigma), whose smallest eigenvalue is 2 minus the
    largest of Delta(1 + w.sigma).  Interior inputs are dominated and not
    scanned: lambda_min(Delta(1 + r u.sigma)) =
    (1-r) + r*lambda_min(Delta(1 + u.sigma)) for 0 <= r <= 1.  Stops at
    the first eigenvalue below -TOL_EIG; positivity is scale-invariant, so
    w0 = 1 inputs suffice.  Raises ValueError when an image has a
    non-finite entry, because no verdict can be read from it.

    Screen, then solve: most directions can change neither the verdict, the
    witness nor the minimum, so they get a sign test instead of an eigen
    solve.  The probes and the first CHUNK sphere directions are solved
    with eigvalsh, which seeds the running minimum m.  Every later chunk
    goes through _clears at t = max(-TOL_EIG, m - margin) on both signs
    (the image of -w is 2*1(x)1 - X), and only the directions that do not
    clear are solved, in sample order.  Both minima of a cleared direction
    are above t, so it is not a witness and lowers the minimum by less
    than margin: verdict and witness are those of solving every direction,
    and min_eigenvalue_seen is within margin of that exhaustive minimum,
    byte-identical to it unless the minimum is flat to rounding (as on the
    |B| = 1/2 linear operators, where it is 0 in every direction).

    The constants, with scale = 1 + sum |entries of basis_images(d)|, which
    bounds ||X|| for every image X since |w_i| <= 1:
      margin = 1e-12 * scale.
      floor = 256 eps * scale.  When every computed pivot of
        X - (t + floor) I exceeds floor > 0, the computed factors are an
        exact LDL^H factorisation, with positive pivots, of
        X - (t + floor) I + E, so lambda_min(X) > t + floor - ||E||.  The
        backward error is ||E|| <= n gamma_{n+1} ||X - (t + floor) I||
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10):
        about 10 eps in real arithmetic for n = 4, a few times that in
        complex, so below 32 eps * 2 scale, as -TOL_EIG <= t <= 1 (m <= 1,
        since lambda_min + 2 - lambda_max <= 2).  eigvalsh is backward
        stable; for 4x4 it misplaces no eigenvalue by more than
        64 eps * scale.  floor covers the sum twice over, so every
        eigenvalue eigvalsh computes for a cleared image is above t.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    scale = 1.0 + float(np.abs(channel.basis_images(d)).sum())
    margin = 1e-12 * scale
    floor = 256.0 * np.finfo(float).eps * scale
    min_seen = np.inf
    for k, W in enumerate(_batches(d, samples, seed)):
        images = channel.bloch_images(d, W)
        if not np.isfinite(images).all():
            raise ValueError("operator images overflow double precision; positivity cannot be decided")
        rows = np.arange(len(W))
        if k >= 2:  # the probes and the first sphere chunk are solved in full
            t = max(-TOL_EIG, min_seen - margin)
            cleared = _clears(images, t, floor) & _clears(2.0 * np.eye(4) - images, t, floor)
            rows = rows[~cleared]
            if not rows.size:
                continue
        vals = np.linalg.eigvalsh(images[rows])
        mins = np.column_stack([vals[:, 0], 2.0 - vals[:, -1]]).ravel()  # (w, +), (w, -), ...
        bad = np.nonzero(mins < -TOL_EIG)[0]
        if bad.size:
            first = int(bad[0])
            w = W[rows[first // 2]] if first % 2 == 0 else -W[rows[first // 2]]
            return PositivityVerdict(
                verdict=False,
                min_eigenvalue_seen=min(min_seen, float(mins[: first + 1].min())),
                witness=Witness(w=w, min_eigenvalue=float(mins[first])),
            )
        min_seen = min(min_seen, float(mins.min()))
    return PositivityVerdict(verdict=True, min_eigenvalue_seen=min_seen)


def check_positivity_exhaustive(d, samples, seed):
    """Reference oracle: one eigvalsh over the probes, then one over every sphere point.

    The screened oracle must reach the same verdict and witness, and a
    minimum within 1e-12 * scale of this one.
    """
    batches = [_probe_directions(induced_qmap(d))]
    if samples > 0:
        batches.append(sphere_points(generator(seed), samples))
    min_seen = np.inf
    for W in batches:
        vals = np.linalg.eigvalsh(channel.bloch_images(d, W))
        mins = np.column_stack([vals[:, 0], 2.0 - vals[:, -1]]).ravel()  # (w, +), (w, -), ...
        bad = np.nonzero(mins < -TOL_EIG)[0]
        if bad.size:
            first = int(bad[0])
            w = W[first // 2] if first % 2 == 0 else -W[first // 2]
            return PositivityVerdict(
                verdict=False,
                min_eigenvalue_seen=min(min_seen, float(mins[: first + 1].min())),
                witness=Witness(w=w, min_eigenvalue=float(mins[first])),
            )
        min_seen = min(min_seen, float(mins.min()))
    return PositivityVerdict(verdict=True, min_eigenvalue_seen=min_seen)
