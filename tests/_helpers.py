"""Shared oracles and random generators for the test suite.

Everything here is independent of the library's own algorithms: closed-form
exponentials, quadrature, and stage-by-stage integrators, so library results
can be checked against a second route.
"""

import numpy as np

from qenvelope import GeneratorFamily, affine_flow, build_drift, build_laplacian, interval_generator


def two_state_generator(a, b):
    """The rate matrix [[-a, a], [b, -b]]."""
    return np.array([[-a, a], [b, -b]], dtype=float)


def two_state_exp(a, b, t):
    """Closed-form e^{t q} for q = [[-a, a], [b, -b]] with a + b > 0."""
    s = a + b
    decay = np.exp(-s * t)
    return np.array([
        [b + a * decay, a - a * decay],
        [b - b * decay, a + b * decay],
    ]) / s


def rk4_affine(q, f, u0, t, steps):
    """Fixed-step classical Runge-Kutta for the linear system u' = q u + f."""
    q = np.asarray(q, float)
    f = np.asarray(f, float)
    u = np.array(u0, dtype=float)
    h = t / steps
    for _ in range(steps):
        k1 = q @ u + f
        k2 = q @ (u + 0.5 * h * k1) + f
        k3 = q @ (u + 0.5 * h * k2) + f
        k4 = q @ (u + h * k3) + f
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def trapezoid_flow_offset(a, b, f, h, steps=100_000):
    """Trapezoid quadrature of the integral of e^{s q} f over [0, h] for the
    closed-form two-state generator."""
    s = a + b
    grid = np.linspace(0.0, h, steps + 1)
    decay = np.exp(-s * grid)
    comp0 = ((b + a * decay) * f[0] + (a - a * decay) * f[1]) / s
    comp1 = ((b - b * decay) * f[0] + (a + b * decay) * f[1]) / s
    return np.trapezoid(np.stack([comp0, comp1], axis=1), grid, axis=0)


def off_to_rate(off):
    """Zero the diagonal of ``off`` and refill it so rows sum to zero."""
    m = np.array(off, dtype=float)
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def random_rate_matrix(rng, d, scale=1.0):
    return off_to_rate(rng.uniform(0.0, scale, (d, d)))


def random_family(rng, d, members=2, convex=False, scale=1.0, direction="upper"):
    """A random valid family; ``convex=True`` adds nonpositive penalties with
    member 0 exactly unpenalised."""
    mats = tuple(random_rate_matrix(rng, d, scale) for _ in range(members))
    pens = None
    if convex:
        pens = (np.zeros(d),) + tuple(
            -np.abs(rng.uniform(0.0, 0.5, d)) for _ in range(members - 1)
        )
    return GeneratorFamily(mats, pens, direction=direction)


def random_interval_family(rng, d, direction="upper"):
    """Interval family whose endpoints are guaranteed valid: the base matrix
    off-diagonals dominate the spread's."""
    q0 = off_to_rate(0.5 + rng.uniform(0.0, 1.0, (d, d)))
    spread = off_to_rate(rng.uniform(0.0, 0.3, (d, d)))
    return interval_generator(q0, spread, -1.0, 1.0, direction=direction)


def jump_diffusion(d, delta, rate=2.0, width=0.5):
    """Dense rate matrix: the Neumann second difference on a uniform grid
    plus jumps to every other state, with Gaussian weights in the jump size
    normalised to total jump rate ``rate`` per state."""
    x = np.arange(d) * delta
    jumps = np.exp(-0.5 * ((x[None, :] - x[:, None]) / width) ** 2)
    np.fill_diagonal(jumps, 0.0)
    jumps *= rate / jumps.sum(axis=1, keepdims=True)
    steps = np.zeros((d, d))
    i = np.arange(d - 1)
    steps[i, i + 1] = steps[i + 1, i] = 1.0 / delta**2
    return off_to_rate(steps + jumps)


def grid_family(kind, d, delta):
    """The CLI's two built-in families on a grid of d states: 'drift' is the
    Laplacian with drift lambda in [-1, 1], 'vol' the Laplacian scaled by
    lambda in [0.5, 1.5]."""
    lap = build_laplacian(d, delta)
    if kind == "drift":
        return interval_generator(lap, build_drift(d, delta), -1.0, 1.0)
    return interval_generator(np.zeros((d, d)), lap, 0.5, 1.5)


def pentadiagonal(d, delta):
    """Rate matrix with jumps to the first and second neighbours."""
    off = np.zeros((d, d))
    i = np.arange(d)
    for k, rate in ((1, 1.0), (2, 0.25)):
        off[i[:-k], i[:-k] + k] = off[i[k:], i[k:] - k] = rate / delta**2
    return off_to_rate(off)


def penta_family(d):
    """Two members of half-bandwidth 2 on a d-state grid over [0, 10], the
    second with a seeded nonpositive penalty."""
    delta = 10.0 / (d - 1)
    pen = -np.random.default_rng(d).uniform(0.0, 0.5, d)
    members = (pentadiagonal(d, delta), 0.5 * pentadiagonal(d, delta) + build_drift(d, delta))
    return GeneratorFamily(members, (np.zeros(d), pen))


def dense_flow_stack(fam, h):
    """The (m*d, d) stack of the members' exact flows for step h, from
    affine_flow alone: the uncut exponentials."""
    return np.vstack([affine_flow(q, f, h).matrix for q, f in zip(fam.matrices, fam.penalties)])
