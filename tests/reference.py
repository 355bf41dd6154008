"""60-digit reference values of both MSE bounds, by Gaussian conditioning in mpmath.

The model's stored float64 arrays are converted exactly (``mp.mpf(float(v))``),
so the reference is the bounds of the very model the code holds, worked at 60
significant digits. Nothing here uses the package's own algebra: each bound is
the trace of the Schur complement that conditions a joint ``[x; y]`` Gaussian
on ``y``,

    Cov(x | y) = C_x - C_x H^T (H C_x H^T + C_n)^-1 H C_x.

* genie: per (signal k, noise l) pair, with ``C_x = C_k`` and ``C_n = C_l``;
  the bound is the ``p_k q_l``-weighted sum of the traces;
* LMMSE: once, with the centred moment-matched covariances
  ``sum_k p_k (C_k + (u_k - u)(u_k - u)^T)`` of the signal and of the noise.
"""

from mpmath import mp

DPS = 60


def exact(array) -> mp.matrix:
    """A float64 vector (as a column) or matrix as an mpmath matrix, entry by entry exactly."""
    rows = array.tolist() if array.ndim == 2 else [[v] for v in array.tolist()]
    return mp.matrix([[mp.mpf(float(v)) for v in row] for row in rows])


def components(mixture) -> list[tuple[mp.mpf, mp.matrix, mp.matrix]]:
    """The ``(weight, mean, covariance)`` triples of a mixture, converted exactly."""
    return [(mp.mpf(float(w)), exact(u), exact(c))
            for w, u, c in zip(mixture.weights, mixture.means, mixture.covariances)]


def conditional_trace(h: mp.matrix, x_cov: mp.matrix, n_cov: mp.matrix) -> mp.mpf:
    """Trace of ``Cov(x | y)``: the Schur complement of the ``y`` block in the
    joint covariance ``[[C_x, C_x H^T], [H C_x, H C_x H^T + C_n]]``."""
    xy = x_cov * h.T
    yy = h * xy + n_cov
    post = x_cov - xy * mp.inverse(yy) * xy.T
    return mp.fsum(post[i, i] for i in range(post.rows))


def centred_covariance(parts) -> mp.matrix:
    """The moment-matched covariance ``sum_k p_k (C_k + (u_k - u)(u_k - u)^T)``."""
    mean = mp.zeros(parts[0][1].rows, 1)
    for w, u, _ in parts:
        mean += w * u
    cov = mp.zeros(mean.rows)
    for w, u, c in parts:
        centred = u - mean
        cov += w * (c + centred * centred.T)
    return cov


def reference_bounds(model) -> tuple[mp.mpf, mp.mpf]:
    """``(genie lower, LMMSE upper)`` of ``model`` at 60 digits."""
    with mp.workdps(DPS):
        h = exact(model.H)
        signal, noise = components(model.x_prior), components(model.noise)
        genie = mp.fsum(p * q * conditional_trace(h, x_cov, n_cov)
                        for p, _, x_cov in signal for q, _, n_cov in noise)
        lmmse = conditional_trace(h, centred_covariance(signal), centred_covariance(noise))
        return +genie, +lmmse
