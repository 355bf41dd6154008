"""60-digit reference values by Gaussian conditioning in mpmath: both MSE bounds,
and the responsibilities and posterior means at given observations.

The model's stored float64 arrays are converted exactly (``mp.mpf(float(v))``),
so the reference is that of the very model the code holds, worked at 60
significant digits. Nothing here uses the package's own algebra: each (signal
k, noise l) pair's joint ``[x; y]`` Gaussian is conditioned on ``y`` by the
Schur complement of its ``y`` block ``S = H C_x H^T + C_n``,

    E(x | y) = u_x + C_x H^T S^-1 (y - H u_x - u_n),
    Cov(x | y) = C_x - C_x H^T S^-1 H C_x.

* genie: the ``p_k q_l``-weighted sum of the pairs' ``tr Cov(x | y)``;
* LMMSE: ``tr Cov(x | y)`` once, with the centred moment-matched covariances
  ``sum_k p_k (C_k + (u_k - u)(u_k - u)^T)`` of the signal and of the noise;
* responsibilities: a softmax of ``log(p_k q_l)`` plus each pair's Gaussian
  log-density of ``y``; the posterior mean is their weighted sum of the
  pairs' ``E(x | y)``, and the LMMSE estimate the one pair's ``E(x | y)`` of
  the centred moment-matched model.
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


def moment_matched(parts) -> tuple[mp.mpf, mp.matrix, mp.matrix]:
    """The one component ``(1, u, sum_k p_k (C_k + (u_k - u)(u_k - u)^T))`` of
    a mixture's centred moments."""
    mean = mp.zeros(parts[0][1].rows, 1)
    for w, u, _ in parts:
        mean += w * u
    cov = mp.zeros(mean.rows)
    for w, u, c in parts:
        centred = u - mean
        cov += w * (c + centred * centred.T)
    return mp.one, mean, cov


def reference_posteriors(model, ys, *, matched: bool = False):
    """Responsibilities, per-pair posterior means and posterior means of
    ``model`` at each row of the float64 array ``ys``, at 60 digits.

    Returns ``(alpha, pair_means, means)``, each a list over the rows:
    ``alpha[i][p]`` is the responsibility of pair ``p = k L + l``,
    ``pair_means[i][p]`` its ``E(x | y)`` and ``means[i]`` the posterior mean,
    both columns. A zero-weight pair has log weight ``-inf`` and so
    responsibility 0. With ``matched``, the one-pair centred moment-matched
    model stands in for the mixture: ``means`` is then the LMMSE estimate.
    Read the values inside ``mp.workdps(DPS)``.
    """
    with mp.workdps(DPS):
        h = exact(model.H)
        signal, noise = components(model.x_prior), components(model.noise)
        if matched:
            signal, noise = [moment_matched(signal)], [moment_matched(noise)]
        pairs = []
        for p, u, x_cov in signal:
            for q, v, n_cov in noise:
                xy = x_cov * h.T
                yy = h * xy + n_cov
                s_inv = mp.inverse(yy)
                log_norm = -(h.rows * mp.log(2 * mp.pi) + mp.log(mp.det(yy))) / 2
                pairs.append((mp.log(p * q) + log_norm, u, h * u + v, xy * s_inv, s_inv))
        alpha, pair_means, means = [], [], []
        for y in ys:
            y = exact(y)
            logs, row = [], []
            for log_scale, u, y_mean, gain, s_inv in pairs:
                r = y - y_mean
                logs.append(log_scale - (r.T * s_inv * r)[0, 0] / 2)
                row.append(u + gain * r)
            peak = max(logs)
            weights = [mp.exp(v - peak) for v in logs]
            total = mp.fsum(weights)
            alpha.append([w / total for w in weights])
            pair_means.append(row)
            mean = mp.zeros(row[0].rows, 1)
            for a, m in zip(alpha[-1], row):
                mean += a * m
            means.append(mean)
        return alpha, pair_means, means


def reference_bounds(model) -> tuple[mp.mpf, mp.mpf]:
    """``(genie lower, LMMSE upper)`` of ``model`` at 60 digits."""
    with mp.workdps(DPS):
        h = exact(model.H)
        signal, noise = components(model.x_prior), components(model.noise)
        genie = mp.fsum(p * q * conditional_trace(h, x_cov, n_cov)
                        for p, _, x_cov in signal for q, _, n_cov in noise)
        lmmse = conditional_trace(h, moment_matched(signal)[2], moment_matched(noise)[2])
        return +genie, +lmmse
