"""The four-parameter weight family, admissibility checks, and weighted norms.

Weights are drawn from the family

    w(x) = exp(a |x|^b) * (1 + |x|)^c * log(e + |x|)^d,

parameterized by :class:`WeightSpec`.  ``admissibility_report`` measures the
constants that decide whether a weight can ride along the flow: the
moderateness constant C0 with phi(x+y) <= C0 v(x) phi(y), the logarithmic
derivative bound A with |phi'| <= A phi, sub-multiplicativity of the
comparison weight v, and the integrability of v against the exponential
kernel, integrated by a numpy double-exponential (tanh-sinh) rule.
Measured constants are suprema over deterministic low-discrepancy samples
and therefore lower bounds of the true constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .grid import Field, Grid, lp_norm, lp_norms

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

#: The largest Halton sample an admissibility report may take: ~100 MB of pair arrays.
MAX_SAMPLES = 2**20
#: The largest ``domain_bound`` an admissibility report may take.  The tanh-sinh rule's
#: first node sits ~1e-29 bound above 0, so a larger bound leaves no node where e^{-x}
#: lives: for v = (0, 0, 1, 0), whose kernel integral is 4, the bound and its double
#: give it to 1e-12 up to 1e17 but not at 1e18, and 1e28 reads 3.845, 1e40 reads 0.0.
#: The weight (0.5, 1, 0.5, 1) is exact at 1e2 and clamps (kernel integral inf) from 2e3.
MAX_BOUND = 1e17
#: Sentinel for clamped evaluations of explosive weights.
HUGE = 1e300
_LOG_HUGE = np.log(HUGE)

#: The tanh-sinh rule of the kernel integrals: nodes at the multiples of
#: ``_DE_STEP / 2**level`` in [-_DE_SPAN, _DE_SPAN], one level more until
#: two agree to ``_DE_RTOL`` or ``_DE_LEVELS`` are taken.
_DE_SPAN = 3.75
_DE_STEP = 0.5
_DE_LEVELS = 7
_DE_RTOL = 1e-13


@dataclass(frozen=True)
class WeightSpec:
    """Parameters (a, b, c, d) of exp(a|x|^b) (1+|x|)^c log(e+|x|)^d."""

    a: float
    b: float
    c: float
    d: float

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
    phi_vals, v_vals = weight_on_grid(phi, grid), weight_on_grid(v, grid)
    return float(_young_slacks(grid, f1.values, f2.values, phi_vals, v_vals, (p,), C0)[0])


def _young_slacks(grid: Grid, f1, f2, phi, v, ps, C0: float) -> np.ndarray:
    """:func:`weighted_young_check` of each row pair of the blocks ``f1``, ``f2``, for each p in ``ps``.

    ``phi`` and ``v`` are weight tables on the grid nodes; the result has
    one row per p and one column per pair.  The convolutions are taken
    once, in one batched FFT pass, and shared by every p.
    """
    conv = grid.irfft(grid.rfft(f1) * grid.rfft(f2)) * grid.dx
    # the array origin sits at x = -L, so the circular convolution comes
    # back shifted by half a period
    conv = np.roll(conv, -(grid.n // 2), axis=-1)
    l1_f1_v = lp_norms(f1 * v, grid.dx, 1.0)
    out = []
    for p in ps:
        lhs = lp_norms(conv * phi, grid.dx, p)
        rhs = C0 * l1_f1_v * lp_norms(f2 * phi, grid.dx, p)
        out.append(rhs - lhs)
    return np.array(out)


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
        """Every field plus the verdict, with the weights as strings."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(phi=str(self.phi), v=str(self.v), notes=list(self.notes))
        out.update(passes=dict(self.passes), admissible=self.admissible)
        return out


def _radical_inverse(count: int, base: int) -> np.ndarray:
    """The first ``count`` points of the van der Corput sequence in ``base``.

    Index i maps to its base-``base`` digits mirrored about the radix point;
    the digits are summed lowest first, so the values match the reference
    unscrambled Halton sequence bit for bit.
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


def _tanh_sinh(g, bound: float) -> float:
    """The integral of the vectorised ``g`` over (0, bound), by the tanh-sinh rule.

    x = bound / (1 + exp(-pi sinh t)) maps the t axis onto (0, bound) so that
    the integrand decays double exponentially at both ends, and an algebraic
    cusp at an endpoint keeps the rule's exponential convergence (Takahasi &
    Mori, Publ. RIMS 9:721, 1974).  Each level halves the step and evaluates
    ``g`` once, on the new nodes only.  Nodes are taken from their distance
    to 0, so the first sits ~1e-29 bound above it; nodes that round onto
    ``bound`` are dropped.  When no two levels agree the last one is returned;
    a level whose sum is not finite is returned at once.
    """
    total, value = 0.0, np.nan
    for level in range(_DE_LEVELS):
        h = _DE_STEP / 2**level
        j = np.arange(-int(_DE_SPAN / h), int(_DE_SPAN / h) + 1)
        t = h * (j if level == 0 else j[j % 2 == 1])
        s = np.pi * np.sinh(t)
        xi = 1.0 / (1.0 + np.exp(-s))
        x = bound * xi
        dx = bound * np.pi * np.cosh(t) * xi / (1.0 + np.exp(s))
        inside = x < bound
        total += float(np.sum(g(x[inside]) * dx[inside]))
        prev, value = value, h * total
        # a non-finite sum stays so at every later level
        if not np.isfinite(value) or abs(value - prev) <= _DE_RTOL * abs(value):
            break
    return value


def _kernel_lp(spec: WeightSpec, bound: float, p: float) -> float:
    """The L^p norm of v(x) e^{-|x|} over (-bound, bound); inf once ``eval_weight`` clamps there.

    A clamped sample is HUGE, not v, so any number taken from it would
    depend on the rule rather than on the weight.
    """
    if np.isinf(p):
        # the sup off 20001 even nodes, then off 101 between the best node's neighbours, each
        # pass narrowing the node step 50-fold: once it is below 1 (the scale of e^{-|x|})
        # the passes stop when the value gains under 1e-15 of itself, or after 8 more.  At a
        # large bound the even nodes alone step over the sup
        xs = np.linspace(-bound, bound, 20001)
        best = -np.inf
        for _ in range(math.ceil(math.log(max(xs[1] - xs[0], 1.0), 50.0)) + 8):
            w = eval_weight(spec, xs)
            if np.max(w) >= HUGE:
                return np.inf
            vals = w * np.exp(-np.abs(xs))
            i = int(np.argmax(vals))
            gain, best = vals[i] - best, max(best, float(vals[i]))
            if xs[1] - xs[0] < 1.0 and gain <= 1e-15 * best:
                break
            xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 101)
        return best
    if eval_weight(spec, bound) >= HUGE:
        return np.inf

    def integrand(x):
        w = eval_weight(spec, x)
        # a clamped sample's power is discarded, and a huge one's is inf either way
        with np.errstate(over="ignore"):
            return np.where(w >= HUGE, np.inf, (w * np.exp(-x)) ** p)

    # the integrand is even: twice its integral over (0, bound), where the
    # |x|^b cusp of b < 1 sits at an endpoint
    val = 2.0 * _tanh_sinh(integrand, bound)
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
    The kernel integrability conditions are checked by a tanh-sinh rule,
    refined until two levels agree to 1e-13, with a domain-doubling stability
    test (relative change below 1e-6).
    """
    if not 1000 <= sample_count <= MAX_SAMPLES:
        raise ValueError(f"sample_count {sample_count} not in [1000, MAX_SAMPLES = {MAX_SAMPLES}]")
    if not 0 < domain_bound < np.inf:
        raise ValueError(f"domain_bound must be positive and finite, got {domain_bound}")
    if domain_bound > MAX_BOUND:
        raise ValueError(f"domain_bound {domain_bound:g} exceeds MAX_BOUND = {MAX_BOUND:g}")

    pairs = _halton_pairs(sample_count, domain_bound)
    xs, ys = pairs[:, 0], pairs[:, 1]

    # weights that underflow to 0 make these ratios x/0 or 0/0; the inf or NaN
    # they leave in C0 fails the "moderate" check below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio_c0 = eval_weight(phi, xs + ys) / (eval_weight(v, xs) * eval_weight(phi, ys))
        submult = eval_weight(v, xs + ys) / (eval_weight(v, xs) * eval_weight(v, ys))
    C0 = float(np.max(ratio_c0))
    # a 0/0 ratio leaves NaN, which max(0, .) would turn into a pass; it fails as inf
    worst_submult = float(np.max(submult))
    submult_max_violation = np.inf if np.isnan(worst_submult) else max(0.0, worst_submult - 1.0)

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
