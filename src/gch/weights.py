"""The four-parameter weight family, admissibility checks, and weighted norms.

Weights are drawn from the family

    w(x) = exp(a |x|^b) * (1 + |x|)^c * log(e + |x|)^d,

parameterized by :class:`WeightSpec`.  ``admissibility_report`` measures the
constants that decide whether a weight can ride along the flow: the
moderateness constant C0 with phi(x+y) <= C0 v(x) phi(y), the logarithmic
derivative bound A with |phi'| <= A phi, sub-multiplicativity of the
comparison weight v, and the integrability of v against the exponential
kernel.  Measured constants are suprema over deterministic low-discrepancy
samples and therefore lower bounds of the true constants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, lp_norm

__all__ = [
    "WeightSpec",
    "AdmissibilityReport",
    "eval_weight",
    "truncate_weight",
    "weight_on_grid",
    "weighted_lp_norm",
    "weighted_young_check",
    "admissibility_report",
    "HUGE",
]

#: Sentinel for clamped evaluations of explosive weights.
HUGE = 1e300
_LOG_HUGE = np.log(HUGE)


@dataclass(frozen=True)
class WeightSpec:
    """Parameters (a, b, c, d) of exp(a|x|^b) (1+|x|)^c log(e+|x|)^d."""

    a: float
    b: float
    c: float
    d: float

    @property
    def submultiplicative_family(self) -> bool:
        """True in the regime a, c, d >= 0 and 0 <= b <= 1 where the family is sub-multiplicative."""
        return self.a >= 0 and self.c >= 0 and self.d >= 0 and 0 <= self.b <= 1

    def sqrt(self) -> "WeightSpec":
        """The pointwise square root, again a member of the family."""
        return WeightSpec(self.a / 2.0, self.b, self.c / 2.0, self.d / 2.0)

    def __str__(self) -> str:
        return f"({self.a:g},{self.b:g},{self.c:g},{self.d:g})"


def eval_weight(spec: WeightSpec, x):
    """Evaluate the weight; overflow is clamped to the HUGE sentinel and reported."""
    ax = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        log_w = spec.a * ax**spec.b + spec.c * np.log1p(ax) + spec.d * np.log(np.log(np.e + ax))
    clipped = log_w > _LOG_HUGE
    if np.any(clipped):
        warnings.warn(
            f"weight {spec} overflows at {int(np.sum(clipped))} points; clamped to {HUGE:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    out = np.where(clipped, HUGE, np.exp(np.where(clipped, 0.0, log_w)))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def truncate_weight(spec: WeightSpec, N: float):
    """The truncation min(w, N), returned as a plain function of x."""
    if N <= 0:
        raise ValueError(f"truncation level must be positive, got {N}")

    def w_N(x):
        return np.minimum(eval_weight(spec, x), N)

    return w_N


def weight_on_grid(w, grid: Grid) -> np.ndarray:
    """Evaluate a weight (WeightSpec, callable, or array) on the grid nodes."""
    if isinstance(w, WeightSpec):
        vals = eval_weight(w, grid.x)
    elif callable(w):
        vals = np.asarray(w(grid.x), dtype=float)
    else:
        vals = np.asarray(w, dtype=float)
    if vals.shape != (grid.n,):
        raise ValueError(f"weight table must have shape ({grid.n},), got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("weight is not finite on the grid; truncate explosive weights first")
    return vals


def weighted_lp_norm(f: Field, w, p: float) -> float:
    """L^p norm of the pointwise product f*w."""
    wv = weight_on_grid(w, f.grid)
    return lp_norm(Field(f.grid, f.values * wv), p)


def weighted_young_check(f1: Field, f2: Field, phi, v, p: float, C0: float) -> float:
    """Slack of the weighted convolution inequality.

    Returns C0 ||f1 v||_1 ||f2 phi||_p - ||(f1*f2) phi||_p with the
    convolution periodized on the grid; nonnegative slack means the
    inequality holds.
    """
    if f1.grid != f2.grid:
        raise ValueError("fields must live on the same grid")
    grid = f1.grid
    conv = grid.irfft(grid.rfft(f1.values) * grid.rfft(f2.values)) * grid.dx
    # the array origin sits at x = -L, so the circular convolution comes
    # back shifted by half a period
    conv = np.roll(conv, -(grid.n // 2))
    lhs = weighted_lp_norm(Field(grid, conv), phi, p)
    rhs = C0 * weighted_lp_norm(f1, v, 1.0) * weighted_lp_norm(f2, phi, p)
    return float(rhs - lhs)


@dataclass
class AdmissibilityReport:
    """Measured admissibility constants for a (phi, v) weight pair.

    ``C0`` and ``A`` are sampled suprema, hence lower bounds of the true
    constants.  ``kernel_integral`` is the integral of v(x) e^{-|x|} over
    the truncated domain; the L^1 condition passes when it is stable under
    domain doubling, the L^p condition when the corresponding norm is.
    """

    phi: WeightSpec
    v: WeightSpec
    p: float
    domain_bound: float
    sample_count: int
    C0: float
    A: float
    submult_max_violation: float
    kernel_integral: float
    kernel_integral_doubled: float
    kernel_lp_norm: float
    kernel_lp_norm_doubled: float
    inf_v: float
    passes: dict
    notes: tuple = ()

    @property
    def admissible(self) -> bool:
        return (
            self.passes["moderate"]
            and self.passes["derivative_bound"]
            and self.passes["kernel_l1"]
            and self.passes["positive_inf_v"]
        )

    def as_dict(self) -> dict:
        return {
            "phi": str(self.phi),
            "v": str(self.v),
            "p": "inf" if np.isinf(self.p) else self.p,
            "domain_bound": self.domain_bound,
            "sample_count": self.sample_count,
            "C0": self.C0,
            "A": self.A,
            "submult_max_violation": self.submult_max_violation,
            "kernel_integral": self.kernel_integral,
            "kernel_integral_doubled": self.kernel_integral_doubled,
            "kernel_lp_norm": self.kernel_lp_norm,
            "kernel_lp_norm_doubled": self.kernel_lp_norm_doubled,
            "inf_v": self.inf_v,
            "passes": dict(self.passes),
            "admissible": self.admissible,
            "notes": list(self.notes),
        }


def _radical_inverse(count: int, base: int) -> np.ndarray:
    """The first ``count`` points of the van der Corput sequence in ``base``.

    Index i maps to its base-``base`` digits mirrored about the radix point;
    the digits are summed lowest first, so the values match the unscrambled
    Halton sequence of ``scipy.stats.qmc`` bit for bit.
    """
    idx = np.arange(count)
    out = np.zeros(count)
    scale = 1.0 / base
    while np.any(idx):
        idx, digit = np.divmod(idx, base)
        out += digit * scale
        scale /= base
    return out


def _halton_pairs(count: int, bound: float) -> np.ndarray:
    """Deterministic low-discrepancy sample of [-bound, bound]^2 (Halton, bases 2 and 3)."""
    pts = np.column_stack((_radical_inverse(count, 2), _radical_inverse(count, 3)))
    return (2.0 * pts - 1.0) * bound


def _log_derivative_bound(spec: WeightSpec, xs: np.ndarray) -> float:
    """max |w'(x)| / w(x) by central differences, one-sided at the origin."""
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    w0 = eval_weight(spec, 0.0)
    one_sided = np.abs((eval_weight(spec, h) - w0) / h) / w0
    # a weight that underflows to 0 gives 0/0 = NaN: no finite bound was measured
    with np.errstate(divide="ignore", invalid="ignore"):
        central = np.abs(
            (eval_weight(spec, xs + h) - eval_weight(spec, xs - h)) / (2.0 * h)
        ) / eval_weight(spec, xs)
    return float(np.max(np.where(np.abs(xs) < h, one_sided, central)))


def _kernel_lp(spec: WeightSpec, bound: float, p: float) -> float:
    if np.isinf(p):
        xs = np.linspace(-bound, bound, 20001)
        return float(np.max(eval_weight(spec, xs) * np.exp(-np.abs(xs))))
    from scipy.integrate import quad

    val, _ = quad(
        lambda t: (eval_weight(spec, t) * np.exp(-abs(t))) ** p,
        -bound,
        bound,
        points=[0.0],
        limit=200,
    )
    return float(val ** (1.0 / p))


def admissibility_report(
    phi: WeightSpec,
    v: WeightSpec,
    sample_count: int = 4096,
    domain_bound: float = 20.0,
    p: float = np.inf,
) -> AdmissibilityReport:
    """Measure the admissibility constants of phi relative to v.

    C0 and the sub-multiplicativity defect are suprema over a Halton sample
    of pairs in [-domain_bound, domain_bound]^2; A is a supremum of the
    finite-difference logarithmic derivative over the sample's abscissae.
    The kernel integrability conditions are checked by adaptive quadrature
    with a domain-doubling stability test (relative change below 1e-6).
    """
    if sample_count < 1000:
        raise ValueError(f"sample_count must be >= 1000, got {sample_count}")
    if domain_bound <= 0:
        raise ValueError(f"domain_bound must be positive, got {domain_bound}")

    pairs = _halton_pairs(sample_count, domain_bound)
    xs, ys = pairs[:, 0], pairs[:, 1]

    # weights that underflow to 0 make these ratios x/0 or 0/0; the inf or NaN
    # they leave in C0 fails the "moderate" check below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio_c0 = eval_weight(phi, xs + ys) / (eval_weight(v, xs) * eval_weight(phi, ys))
        submult = eval_weight(v, xs + ys) / (eval_weight(v, xs) * eval_weight(v, ys))
    C0 = float(np.max(ratio_c0))
    submult_max_violation = float(max(0.0, np.max(submult) - 1.0))

    deriv_abscissae = np.concatenate(([0.0], xs))
    A = _log_derivative_bound(phi, deriv_abscissae)

    kernel_integral = _kernel_lp(v, domain_bound, 1.0)
    kernel_integral_doubled = _kernel_lp(v, 2.0 * domain_bound, 1.0)
    l1_stable = (
        abs(kernel_integral_doubled - kernel_integral)
        < 1e-6 * max(abs(kernel_integral), 1e-300)
    )

    kernel_lp = _kernel_lp(v, domain_bound, p)
    kernel_lp_doubled = _kernel_lp(v, 2.0 * domain_bound, p)
    lp_stable = abs(kernel_lp_doubled - kernel_lp) < 1e-6 * max(abs(kernel_lp), 1e-300)

    inf_v = float(np.min(eval_weight(v, np.linspace(-domain_bound, domain_bound, 4001))))

    notes = [
        "C0 and A are suprema over finite samples: lower bounds of the true constants"
    ]
    if 0.0 < phi.b < 1.0:
        notes.append(
            "0 < b < 1: |phi'| diverges at the origin, so A is floored by the "
            "finite-difference step there"
        )

    passes = {
        "moderate": bool(np.isfinite(C0)),
        "submultiplicative": submult_max_violation <= 1e-12,
        "derivative_bound": bool(np.isfinite(A)),
        "kernel_l1": bool(l1_stable and np.isfinite(kernel_integral)),
        "kernel_lp": bool(lp_stable and np.isfinite(kernel_lp)),
        "positive_inf_v": inf_v > 0.0,
    }

    return AdmissibilityReport(
        phi=phi,
        v=v,
        p=p,
        domain_bound=domain_bound,
        sample_count=sample_count,
        C0=C0,
        A=A,
        submult_max_violation=submult_max_violation,
        kernel_integral=kernel_integral,
        kernel_integral_doubled=kernel_integral_doubled,
        kernel_lp_norm=kernel_lp,
        kernel_lp_norm_doubled=kernel_lp_doubled,
        inf_v=inf_v,
        passes=passes,
        notes=tuple(notes),
    )
