"""Grid solution of the renewal equation and quantities built on it.

The mean process m solves m = F + F * m (Stieltjes convolution).  On a
uniform grid of step ``delta`` the convolution integral is discretised by
the trapezoidal rule and the resulting triangular system is solved by
forward substitution:

    m_j = F_j + sum_k dF_k (m_{j-k} + m_{j-k+1}) / 2

The long-time value of  integral f(t - s) dm(s)  tends to
(1 / mu) integral_0^inf f  for Riemann-integrable f (nonnegative,
nonincreasing and absolutely integrable is sufficient), which is the
analytic limit returned next to the grid value.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

# grid steps t_max / delta; more raise ParameterError.  The forward
# substitution is O(n^2), so this bounds its time: 2^18 steps took 14.5 s
# on a 2-core Xeon host.
MAX_NODES = 2**18


@dataclass(frozen=True)
class RenewalEquationSolution:
    times: np.ndarray
    mean_values: np.ndarray
    convolution_value: float
    limit_value: float


def _mean_process_grid(cdf, t_max, delta):
    """Forward-substitution solve of the discretised renewal equation."""
    if not delta > 0:
        raise ParameterError("delta must be positive")
    if not t_max / delta <= MAX_NODES:
        raise ParameterError(f"{t_max / delta:.3g} grid steps, more than MAX_NODES")
    n = int(round(t_max / delta))
    if n < 2:
        raise ParameterError("t_max must cover at least two grid steps")
    times = np.arange(n + 1) * delta
    f_vals = np.asarray(cdf(times), dtype=float)
    if np.any(f_vals < -1e-12) or np.any(f_vals > 1 + 1e-12) or np.any(np.diff(f_vals) < -1e-12):
        raise ParameterError("cdf values must be nondecreasing within [0, 1]")
    df = np.diff(f_vals)          # df[k-1] = F_k - F_{k-1}
    m = np.zeros(n + 1)
    m[0] = f_vals[0]
    pivot = 1.0 - 0.5 * df[0]
    if pivot <= 0:
        raise NumericalError("renewal-equation pivot vanished; step too coarse")
    # mr keeps m in reverse so the convolution sums are contiguous dots:
    # mr[n - j] == m[j]
    mr = np.zeros(n + 1)
    mr[n] = m[0]
    for j in range(1, n + 1):
        lower = df[:j] @ mr[n - j + 1 : n + 1]          # m_{j-k},   k = 1..j
        upper = df[1:j] @ mr[n - j + 1 : n] if j > 1 else 0.0  # m_{j-k+1}, k = 2..j
        m[j] = (f_vals[j] + 0.5 * (lower + upper)) / pivot
        mr[n - j] = m[j]
    return times, m


def solve_renewal_equation(cdf, f, t_max, delta):
    """Solve the renewal equation and evaluate the key convolution.

    Parameters
    ----------
    cdf : callable
        Interarrival cdf, evaluated on the uniform grid.
    f : callable
        Riemann-integrable function convolved against dm; a value that is
        not finite on the grid raises :class:`ParameterError`.
    t_max, delta : float
        Grid extent and spacing.  The grid must effectively cover the
        support of the interarrival law; the mean is computed as the
        trapezoidal integral of 1 - F over the grid.

    Returns a :class:`RenewalEquationSolution` carrying the grid, the mean
    process values, the value of  integral_0^{t_max} f(t_max - s) dm(s)
    and the analytic limit (1 / mu) integral_0^inf f.
    """
    times, m = _mean_process_grid(cdf, t_max, delta)
    f_vals = np.asarray(f(times), dtype=float)
    if not np.all(np.isfinite(f_vals)):
        raise ParameterError("f must be finite at every grid node")

    mu = float(np.trapezoid(1.0 - np.asarray(cdf(times), dtype=float), times))
    if mu <= 0:
        raise NumericalError("estimated interarrival mean is non-positive")
    if not np.all(np.isfinite(m)) or m[-1] > 10.0 * (1.0 + t_max / mu):
        raise NumericalError("discretised mean process grew beyond the linear bound")

    dm = np.diff(m)
    f_rev = f_vals[::-1]                         # f(t_max - t_k)
    conv = float(0.5 * np.sum((f_rev[:-1] + f_rev[1:]) * dm))
    limit = float(np.trapezoid(f_vals, times) / mu)
    return RenewalEquationSolution(
        times=times, mean_values=m, convolution_value=conv, limit_value=limit
    )


def last_renewal_cdf(cdf, t, s, delta):
    """P(T_{N(t)} <= s): the last arrival before t is no later than s.

    Evaluates  (1 - F(t)) + integral_0^s (1 - F(t - r)) dm(r)  on the
    discretised mean process; ``s`` is snapped to the nearest grid node.
    """
    if not 0 <= s <= t:
        raise ParameterError(f"need 0 <= s <= t, got s={s}, t={t}")
    times, m = _mean_process_grid(cdf, t, delta)
    i_s = int(round(s / delta))
    sbar = 1.0 - np.asarray(cdf(t - times), dtype=float)   # survival at t - r
    dm = np.diff(m[: i_s + 1])
    integral = 0.5 * np.sum((sbar[:i_s] + sbar[1 : i_s + 1]) * dm) if i_s >= 1 else 0.0
    return float(sbar[0] + integral)
