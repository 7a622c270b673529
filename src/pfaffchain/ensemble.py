"""Moment matrices of the skew inner product, their Pfaffians and tau ratios.

The ensemble's tau function at even size 2n is the Pfaffian of the moment
matrix m_2n = (mu_ij) built from the skew-symmetric pairing

    mu_ij = integral of x^i y^j sigma(y - x) w(x) w(y) dx dy,
    w(x)  = exp(-x^2/2 + sum_k t_k x^k)

with sigma the sign function.  Orientation convention: sigma(y - x), which
makes mu_01(0) = +2 sqrt(pi) and hence tau_2(0) = pf(m_2(0)) > 0; the
opposite orientation flips every Pfaffian's sign.  At zero coupling the
quadrature taus are 2^n times the Selberg closed form pi^(n/2) prod_{k<n}
2^(-2k) (2k)! (tau_2(0) = 2 sqrt(pi) against its sqrt(pi); the tests keep
the closed form as an oracle): the two normalisations differ by a factor 2
per 2 x 2 block.  Only tau *ratios* are used as acceptance quantities, and
in tau_{2n+2} tau_{2n-2} / tau_{2n}^2 = p_{n+1} / p_n, a ratio of two
pivots of the elimination below, both the orientation and that factor 2^n
cancel.

The kernel sigma(y - x) is discontinuous along the diagonal, so each moment
integral is split into the two triangles y > x and y < x; the swap symmetry
of the second triangle gives

    mu_ij = G[i, j] - G[j, i],   G[i, j] = integral of x^i w(x) I_j(x) dx,
    I_j(x) = integral from x to R of y^j w(y) dy,

which is exactly antisymmetric by construction.  The outer integral is a
Gauss-Legendre rule on [-R, R]; its integrand x^i w(x) I_j(x) is smooth.  The
inner integrals at the outer nodes x_0 < ... < x_{n-1} come from one set of
panels [x_b, x_{b+1}], with x_n = R, each carrying a fixed Gauss-Legendre
rule of ``_PANEL_NODES`` points: I_j(x_a) is the reverse cumulative sum of
the panel sums from panel a on, so a table costs O(nodes) weight
evaluations, not O(nodes^2).  That rule (outer nodes and weights, panel
points and weights) does not depend on t: it is built once per (nodes,
radius) and shared by every coupling vector, whose table evaluates the
weight w on it in one pass per refinement level, outer nodes and panel
points together, and sums powers of x and y against it.  The power rows
x^i w(x) and I_j are kept in buffers that grow in place, each new row formed
from the one before, so a larger degree costs only its new rows and one
einsum.  Each (mu_ij) table is formed once per (t, config, degree), on its
first converged request, and lives as long as its quadrature stays cached;
every later request for that degree, from ``moment_mu``, ``moment_matrix``,
the tau reports or the flow-law residual, returns the same read-only array.
The flow-law residual builds the four shifted coupling vectors of its
stencil once per (t, k, h) and reads every value through ``moment_mu``.  An
entry does not depend on the degree of the table it is read from.  A table
is finite or refused: a degree whose node powers R^degree overflow float64
raises OverflowError before any power is formed, and a table with a
non-finite entry raises ``QuadratureError``, as one that does not converge
does, or one whose mu_01 is not positive: mu_01 = integral over y > x of
(y - x) w(x) w(y) > 0 for every weight, so such a rule missed the weight.
Each refusal names its table, ``moment matrix n=...`` from
``moment_matrix`` and ``moment (i, j) = ...`` from ``moment_mu``.
``moment_matrix`` returns (mu_ij) as a plain antisymmetric ``ndarray``; the
skew elimination copies it before it writes.

Every tau_2n is a leading Pfaffian of one moment matrix, and for a positive
weight every one is positive, so the leading blocks share one skew
elimination without pivoting, ``_skew_elimination`` (the
skew-orthogonal-polynomial structure of Adler, Horozov and van Moerbeke,
IMRN 1999): its first n pivots multiply to tau_2n, and the array it leaves
holds the factor m = Lf J Lf^T.  It is the package's one Pfaffian: a
general skew matrix, which may need pivoting, has none here, and the tests
keep the pivoted Parlett-Reid route (Wimmer, ACM TOMS 38 (2012)) as their
oracle.  ``skew_factor`` is the one reader of the array: it reads Lf off it
and judges each pivot against its own leading minor, and ``lax`` builds the
Lax matrix from Lf.  The elimination's pivot list is the one output of the
tau layer: ``tau_from_moments``, ``tau_report`` and ``tau_table`` read the
pivots they need off one such elimination of the largest table the call
needs, and build no factor.  Each tau_2n is the running product
p_1 ... p_n, and each ratio check is p_{n+1} / p_n, so no tau is squared
and a ratio never touches a tau's magnitude.  The first n steps touch only
the leading 2n x 2n block, which is the same bits in every table, so each
pivot and each tau_2n is the same float from every call.  A pivot that is
not positive means the table lost its precision, and it is refused with a
``ValueError`` that names it; a tau past float64 raises ``OverflowError``,
and a pivot ratio that is not finite a ``ValueError``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "CouplingVector",
    "QuadratureConfig",
    "QuadratureError",
    "FactorizationError",
    "moment_mu",
    "moment_matrix",
    "skew_factor",
    "tau_from_moments",
    "selberg_ratio",
    "moment_flow_residual",
    "tau_report",
    "tau_table",
    "write_moment_csv",
]

_MAX_EXPONENT = 700.0  # exp argument beyond which float64 overflows
# largest change between the two Gauss-Legendre levels, relative to max|mu|
_CONVERGENCE_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Two refinement levels disagree; both estimates are carried along."""

    def __init__(self, msg: str, coarse, fine):
        super().__init__(msg)
        self.coarse = coarse
        self.fine = fine


class FactorizationError(RuntimeError):
    """A pivot of the skew factorisation is not finite, or not above 1e-14
    times the largest entry of its own leading minor."""


@dataclass(frozen=True)
class CouplingVector:
    """Finite family of coupling constants t_k, k >= 1.

    The largest coupled power must keep the weight integrable: either k_max
    is even with t_{k_max} < 0, or k_max <= 2 and the quadratic exponent
    coefficient -1/2 + t_2 stays negative.  ``even_only`` is derived, not
    set: it is True iff every coupled power is even (so the weight is even).
    ``key()``, the sorted entries, is formed once, when the vector is.
    """

    entries: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           {int(k): float(v) for k, v in self.entries.items()
                            if float(v) != 0.0})
        for k, v in self.entries.items():
            if k < 1:
                raise ValueError(f"coupling index must be positive, got {k}")
            if not math.isfinite(v):
                raise ValueError(f"coupling t{k} must be finite, got {v}")
        if self.entries:
            k_max = max(self.entries)
            t_max = self.entries[k_max]
            ok = (k_max % 2 == 0 and t_max < 0) or \
                 (k_max <= 2 and self.get(2) - 0.5 < 0)
            if not ok:
                raise ValueError(
                    f"weight not integrable at infinity: leading coupling t_{k_max}={t_max}")
        object.__setattr__(self, "_key", tuple(sorted(self.entries.items())))

    even_only = property(lambda self: all(k % 2 == 0 for k in self.entries))

    def get(self, k: int) -> float:
        return self.entries.get(k, 0.0)

    def shifted(self, k: int, dt: float) -> "CouplingVector":
        entries = dict(self.entries)
        entries[k] = entries.get(k, 0.0) + dt
        return CouplingVector(entries)

    def key(self) -> tuple:
        return self._key

    def as_dict(self) -> dict[str, float]:
        return {f"t{k}": v for k, v in sorted(self.entries.items())}

    @staticmethod
    def zero() -> "CouplingVector":
        return CouplingVector({})


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_axis: int = 200
    domain_radius: float = 10.0

    def __post_init__(self):
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be >= 8")
        if not 0 < self.domain_radius < math.inf:
            raise ValueError(f"domain_radius must be positive and finite, "
                             f"got {self.domain_radius}")
        if not 2 * self.domain_radius < math.inf:
            raise ValueError(f"domain_radius {self.domain_radius:g} is past float64 for the "
                             f"quadrature rule, whose panel midpoints sum nodes up to 2 * radius")

    def key(self) -> tuple:
        return (self.nodes_per_axis, self.domain_radius)


def _weight_array(x: np.ndarray, t: CouplingVector) -> np.ndarray:
    """exp(-x^2/2 + sum_k t_k x^k) elementwise.  An exponent that overflows
    to -inf is a zero weight; one above ``_MAX_EXPONENT``, +inf or NaN (a
    sum of infinities of both signs) raises OverflowError naming the point.
    The first row of a 2-D x is judged before the others: the triangle rule
    puts its outer nodes there, so a bad weight is named at an outer node
    before any panel point."""
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        e = -0.5 * x * x
        for k, tk in t.entries.items():
            e = e + tk * x ** k
    rows_e, rows_x = np.atleast_2d(e, x)
    _judge_exponent(rows_e[:1], rows_x[:1])
    _judge_exponent(rows_e[1:], rows_x[1:])
    return np.exp(e)


def _judge_exponent(e: np.ndarray, x: np.ndarray) -> None:
    """Refuse the largest exponent of e past ``_MAX_EXPONENT``, or its first
    NaN, naming the point of x it belongs to."""
    if not e.size:
        return
    bad = np.argmax(e)  # the first NaN, if there is one
    if e.flat[bad] > _MAX_EXPONENT:
        raise OverflowError(f"weight overflow at x={x.flat[bad]}")
    if np.isnan(e.flat[bad]):
        raise OverflowError(f"the weight exponent at x={x.flat[bad]} is nan: its terms "
                            f"overflow float64 with both signs")


_PANEL_NODES = 8  # Gauss-Legendre points per inner panel; ``_inner_integrals`` sums eight
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(_PANEL_NODES)


@lru_cache(maxsize=8)
def _triangle_rule(nodes: int, radius: float) -> tuple[np.ndarray, ...]:
    """Quadrature rule for the triangle y > x of [-R, R]^2, shared by every
    coupling vector: outer Gauss-Legendre nodes and weights ``x, wx`` on
    [-R, R], and row b of the panel points and weights ``y, wy`` (shape
    (nodes, ``_PANEL_NODES``)) on [x_b, x_{b+1}], with x_nodes = R.  The
    inner integral from x_a to R is the sum of rows a, a+1, ...  Read-only."""
    nodes_x, wts = np.polynomial.legendre.leggauss(nodes)
    x = radius * nodes_x
    wx = radius * wts
    edges = np.append(x, radius)
    half = 0.5 * np.diff(edges)
    center = 0.5 * (edges[:-1] + edges[1:])
    y = center[:, None] + half[:, None] * _PANEL_X[None, :]
    wy = half[:, None] * _PANEL_W[None, :]
    for a in (x, wx, y, wy):
        a.flags.writeable = False
    return x, wx, y, wy


def _inner_integrals(f: np.ndarray, out: np.ndarray) -> None:
    """Sum of the panel rows b >= a of f, for every outer node a, into out.

    A panel's eight points are summed as ((f0 + f1) + (f2 + f3)) + ((f4 +
    f5) + (f6 + f7)), the order of numpy's pairwise ``f.sum(axis=1)``, so
    the sums keep its bits; three adds over all panels at once cost less
    than numpy's reduction over rows of eight."""
    pairs = f[:, 0::2] + f[:, 1::2]
    pairs = pairs[:, 0::2] + pairs[:, 1::2]
    np.add.accumulate((pairs[:, 0] + pairs[:, 1])[::-1], out=out[::-1])


class _TriangleTable:
    """Table of G[i, j] over the triangle y > x, one refinement level.

    The weight is evaluated in one pass over the outer nodes (row 0) and the
    panel points (the rows below) together.  Row i of ``_u`` is
    x^i w(x) wx at the outer nodes and row j of ``_ty`` is I_j there; the
    first ``rows`` rows of both are formed, each power from the one before
    it, and both buffers grow in place, doubling their rows."""

    def __init__(self, t: CouplingVector, nodes: int, radius: float):
        self.x, wx, self.y, wy = _triangle_rule(nodes, radius)
        w = _weight_array(np.concatenate((self.x, self.y.ravel())).reshape(-1, nodes), t)
        self.ux = wx * w[0]                               # outer weight incl. w(x)
        self._ycur = wy * w[1:].reshape(self.y.shape)     # y^j w(y) wy, j = rows - 1
        self._xcur = np.ones_like(self.x)                 # x^(rows - 1)
        self._u = np.empty((8, nodes))                    # room for degrees up to 7
        self._ty = np.empty((8, nodes))
        self._u[0] = self.ux
        _inner_integrals(self._ycur, self._ty[0])
        self.rows = 1

    def _extend(self, degree: int) -> None:
        if degree >= len(self._u):  # at least double the rows
            more = np.empty((max(len(self._u), degree + 1 - len(self._u)), len(self.x)))
            self._u = np.concatenate((self._u, more))
            self._ty = np.concatenate((self._ty, more))
        for i in range(self.rows, degree + 1):
            np.multiply(self._xcur, self.x, out=self._xcur)
            np.multiply(self._xcur, self.ux, out=self._u[i])
            np.multiply(self._ycur, self.y, out=self._ycur)
            _inner_integrals(self._ycur, self._ty[i])
        self.rows = max(self.rows, degree + 1)

    def g_table(self, degree: int) -> np.ndarray:
        """G[i, j] for 0 <= i, j <= degree: one einsum over the leading rows
        of the power buffers, formed on first request.  Each entry is summed
        in the same order at every degree (einsum, not a BLAS product)."""
        self._extend(degree)
        return np.einsum("ia,ja->ij", self._u[: degree + 1], self._ty[: degree + 1])


class _MomentQuadrature:
    """Two refinement levels of the triangle table for one (t, config), and
    the mu tables formed from them.  Each degree's table is formed once, on
    its first converged request, and handed out read-only for as long as
    this quadrature stays in ``_quadrature_for``; a request that does not
    converge is not kept, so it raises again every time."""

    def __init__(self, t: CouplingVector, q: QuadratureConfig):
        self.t = t
        self.q = q
        self.coarse = _TriangleTable(t, q.nodes_per_axis, q.domain_radius)
        self.fine = _TriangleTable(t, 2 * q.nodes_per_axis, q.domain_radius)
        self._tables: dict[int, np.ndarray] = {}

    def mu_table(self, degree: int) -> np.ndarray:
        """(mu_ij) for 0 <= i, j <= degree, read-only."""
        table = self._tables.get(degree)
        if table is None:
            table = self._tables[degree] = self._form(degree)
        return table

    def _form(self, degree: int) -> np.ndarray:
        if degree * math.log(self.q.domain_radius) > _MAX_EXPONENT:
            raise OverflowError(f"degree {degree}: node powers up to "
                                f"{self.q.domain_radius:g}^{degree} overflow float64")
        with np.errstate(all="ignore"):  # a table that overflows is refused below
            gf = self.fine.g_table(degree)
            gc = self.coarse.g_table(degree)
            mu_f = gf - gf.T
            mu_c = gc - gc.T
            peak = float(np.abs(mu_f).max())
            err = float(np.abs(mu_f - mu_c).max())
        if not math.isfinite(peak + err):
            raise QuadratureError(f"the degree-{degree} moment table is not finite in "
                                  f"float64", coarse=mu_c, fine=mu_f)
        scale = max(1.0, peak)
        if err > _CONVERGENCE_TOL * scale:
            raise QuadratureError(
                f"quadrature not converged: refinement change {err:.3e} "
                f"exceeds {_CONVERGENCE_TOL:.1e} * {scale:.3e}",
                coarse=mu_c, fine=mu_f)
        if degree >= 1 and not mu_f[0, 1] > 0:  # mu_01 > 0 for every weight
            raise QuadratureError(
                f"the rule at {self.q.nodes_per_axis} nodes on radius "
                f"{self.q.domain_radius:g} resolves no weight: mu_01 = "
                f"{mu_f[0, 1]:.3g} is not positive",
                coarse=mu_c, fine=mu_f)
        mu_f.flags.writeable = False
        return mu_f


@lru_cache(maxsize=32)
def _quadrature_for(t_key: tuple, q_key: tuple) -> _MomentQuadrature:
    t = CouplingVector(dict(t_key))
    q = QuadratureConfig(*q_key)
    return _MomentQuadrature(t, q)


@lru_cache(maxsize=32)
def _stencil_for(t_key: tuple, k: int, h: float) -> tuple[CouplingVector, ...]:
    """t shifted along t_k by 2h, h, -h and -2h: the points of the flow-law
    stencil, each checked by the integrability guard."""
    t = CouplingVector(dict(t_key))
    return tuple(t.shifted(k, dt) for dt in (2 * h, h, -h, -2 * h))


def moment_mu(i: int, j: int, t: CouplingVector, q: QuadratureConfig) -> float:
    """mu_ij(t); antisymmetric in (i, j) by construction, zero diagonal."""
    if i < 0 or j < 0:
        raise ValueError("moment indices must be nonnegative")
    if i == j:
        return 0.0
    lo, hi = min(i, j), max(i, j)
    try:
        table = _quadrature_for(t.key(), q.key()).mu_table(hi)
    except QuadratureError as exc:
        raise QuadratureError(f"moment (i, j) = ({i}, {j}): {exc}",
                              exc.coarse, exc.fine) from exc
    except OverflowError as exc:
        raise OverflowError(f"moment (i, j) = ({i}, {j}): {exc}") from exc
    value = float(table[lo, hi])
    return value if i < j else -value


def moment_matrix(n: int, t: CouplingVector, q: QuadratureConfig) -> np.ndarray:
    """The 2n x 2n matrix (mu_ij), 0 <= i, j <= 2n-1, as a plain read-only
    array; exactly antisymmetric with a zero diagonal."""
    if n < 1:
        raise ValueError("n must be positive")
    try:
        return _quadrature_for(t.key(), q.key()).mu_table(2 * n - 1)
    except QuadratureError as exc:
        raise QuadratureError(f"moment matrix n={n}: {exc}", exc.coarse, exc.fine) from exc
    except OverflowError as exc:
        raise OverflowError(f"moment matrix n={n}: {exc}") from exc


def write_moment_csv(m: np.ndarray, path) -> None:
    """CSV export: header i,j,mu, one row per upper-triangle entry."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "mu"])
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                writer.writerow([i, j, repr(float(m[i, j]))])


# ---------------------------------------------------------------------------
# the skew elimination: tau functions and the skew factor
# ---------------------------------------------------------------------------


def _as_skew_array(m) -> np.ndarray:
    """m as a float array, refused unless square, of even dimension, finite
    and antisymmetric to 1e-12 relative; the input check of ``skew_factor``."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a skew matrix must be square, got shape {a.shape}")
    if a.shape[0] % 2:
        raise ValueError(f"a skew matrix needs even dimension, got {a.shape[0]}")
    if a.size:
        peak = float(np.abs(a).max())
        if not math.isfinite(peak):
            raise ValueError("a skew matrix needs finite entries")
        scale = max(1.0, peak)
        if float(np.abs(a + a.T).max()) > 1e-12 * scale:
            raise ValueError("matrix is not antisymmetric to 1e-12 relative")
    return a


def _skew_elimination(m) -> tuple[list[float], np.ndarray]:
    """The pivots [p_1, p_2, ...] of one Parlett-Reid elimination of the
    antisymmetric m without pivoting, and the eliminated array.

    Step s takes the Schur complement of the leading 2 x 2 block, whose
    entry (0, 1) is the pivot p_s, so pf(m_2s) = p_1 ... p_s and the tau
    ratio tau_{2s+2} tau_{2s-2} / tau_{2s}^2 is p_{s+1} / p_s.  The first s
    steps read and write only the leading 2s x 2s block, each entry by the
    same elementwise operations at every size, so p_s comes out the same
    bits from every table that holds m_2s.  The elimination stops at, and
    lists, the first pivot that is not positive and finite.

    Step s writes only the trailing block below and right of its own 2 x 2
    block, so the two columns of that block below it keep the values step s
    read.  They hold the factor m = Lf J Lf^T, J = diag([[0, 1], [-1, 0]], ...)
    that ``skew_factor`` reads: with k = 2s - 2, Lf[k+2:, k] = a[k+2:, k+1] /
    sqrt(p_s), Lf[k+2:, k+1] = -a[k+2:, k] / sqrt(p_s) and the diagonal block
    sqrt(p_s) I.
    """
    a = np.array(m, dtype=float)
    pivots = []
    with np.errstate(all="ignore"):  # a pivot that is not finite stops the loop
        for k in range(0, len(a), 2):
            pivots.append(float(a[k, k + 1]))
            if not 0 < pivots[-1] < math.inf:
                break
            tau = a[k, k + 2:] / pivots[-1]
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pivots, a


def _below_blocks(size: int) -> np.ndarray:
    """The entries of a size x size matrix below its 2 x 2 diagonal blocks."""
    i = np.arange(size) // 2
    return i[:, None] > i[None, :]


def skew_factor(m) -> np.ndarray:
    """Lf, lower-triangular with scalar 2x2 diagonal blocks and m = Lf J Lf^T,
    read off the columns that ``_skew_elimination`` leaves below each
    diagonal block.  It exists over the reals when every leading 2r x 2r
    Pfaffian minor is positive, and the positive diagonal makes it unique.
    Each pivot is judged against the largest entry of its own leading minor,
    so blocks of very different magnitude factorise: a pivot that is not
    finite, or not above 1e-14 times that entry, raises
    ``FactorizationError``.  An m that is not a finite antisymmetric square
    matrix of even dimension raises ``ValueError``."""
    a = _as_skew_array(m)
    pivots, e = _skew_elimination(a)
    # max|a[:b, :b]| for b = 2, 4, ...; a is antisymmetric, so its lower triangle holds it
    peaks = np.maximum.accumulate(np.abs(np.tril(a)).max(axis=1, initial=0.0))[1::2]
    p = np.array(pivots)
    ok = (p > 1e-14 * peaks[:len(p)]) & (p < math.inf)
    if not ok.all():
        r = ok.argmin()
        raise FactorizationError(f"singular or nonpositive leading minor: pivot of the "
                                 f"{2 * r + 2}x{2 * r + 2} block is {p[r]}")
    i = np.arange(len(a))
    c = np.sqrt(p).repeat(2)
    # below the diagonal blocks, column k of Lf is column k ^ 1 of e, negated for odd k
    return np.where(_below_blocks(len(a)), e[:, i ^ 1] * (1 - 2 * (i % 2)) / c, 0.0) + np.diag(c)


def _pivot_reader(sizes: Iterable[int], t: CouplingVector,
                  q: QuadratureConfig) -> Callable[[int], list[float]]:
    """[p_1, ..., p_m], the first m pivots of one elimination without
    pivoting, for each m in ``sizes``, listed in the order the caller reads
    them, which is increasing.

    Each table m_2m is requested through ``moment_matrix`` in that order, so
    each keeps its own convergence check, and the largest is eliminated
    once, so every pivot is the same bits at every size.  A refused table
    ends the requests; its error is raised when its pivots are read, as a
    pivot that is not positive is refused when read, so the caller meets
    the first failure in its own reading order.
    """
    table, refused = np.zeros((0, 0)), None
    for m in sizes:
        if m == 0:  # tau_0 = 1 needs no table
            continue
        try:
            table = moment_matrix(m, t, q)
        except (QuadratureError, OverflowError) as exc:
            refused = exc
            break
    pivots = _skew_elimination(table)[0]

    def first(m: int) -> list[float]:
        if 2 * m > len(table):
            raise refused
        # the elimination stops at, and lists, the first pivot that is not positive
        if m >= len(pivots) and pivots and not pivots[-1] > 0:
            raise ValueError(f"tau_{2 * m} cannot be formed: pivot {len(pivots)} of the "
                             f"elimination is {pivots[-1]:.3g}, but every tau of a positive "
                             f"weight is positive, so the moment table has lost its precision")
        return pivots[:m]

    return first


def _tau(m: int, pivots: list[float]) -> float:
    """tau_2m = p_1 ... p_m, multiplied in order from 1; refused where the
    product leaves float64.  An elimination stops at a pivot that is not
    finite, so a list shorter than m ends in +inf and overflows here."""
    value = 1.0
    for s, pivot in enumerate(pivots, 1):
        if not value * pivot < math.inf:
            raise OverflowError(f"tau_{2 * m} overflows float64: tau_{2 * s} = "
                                f"{value:.3g} * {pivot:.3g}")
        value *= pivot
    return value


def tau_from_moments(n: int, t: CouplingVector, q: QuadratureConfig) -> float:
    """tau_2n(t) = pf(m_2n(t)); tau_0 := 1 by convention.

    Read off the elimination of m_2n without pivoting, whose first s pivots
    multiply to tau_2s (see ``_skew_elimination``): the same bits as from
    any larger table.  Raises ValueError when a pivot is not positive, and
    OverflowError when the product leaves float64.
    """
    return _tau(n, _pivot_reader((n,), t, q)(n))


def selberg_ratio(n: int) -> float:
    """p_{n+1} / p_n = tau_{2n+2} tau_{2n-2} / tau_{2n}^2 at zero couplings:
    (2n)(2n-1)/4."""
    if n < 1:
        raise ValueError("ratio needs n >= 1")
    return 0.25 * (2 * n) * (2 * n - 1)


def tau_report(n: int, t: CouplingVector, q: QuadratureConfig) -> dict:
    """JSON-ready record of tau_2n and its ratio check: the pivot ratio
    p_{n+1} / p_n, which is tau_{2n+2} tau_{2n-2} / tau_{2n}^2 with no tau
    squared, over its closed form at zero couplings (== 1.0 at t = 0).
    Tables m_2n and m_{2n+2} are requested, and the pivots come off one
    elimination of m_{2n+2}."""
    return _tau_record(n, t, _pivot_reader((n, n + 1), t, q))


def tau_table(n_max: int, t: CouplingVector, q: QuadratureConfig) -> list[dict]:
    """``tau_report(n, t, q)`` for n = 1..n_max, built in order, every pivot
    read off one elimination of m_{2 n_max + 2}: each tau_2n is the running
    product p_1 ... p_n and each ratio check p_{n+1} / p_n, so no tau is
    squared.  A refusal names the first n that cannot be reported."""
    pivots = _pivot_reader(range(1, n_max + 2), t, q)
    return [_tau_record(n, t, pivots) for n in range(1, n_max + 1)]


def _tau_record(n: int, t: CouplingVector, pivots: Callable[[int], list[float]]) -> dict:
    try:
        value = _tau(n, pivots(n))
        below, above = pivots(n + 1)[n - 1:] if n else (None, None)
    except (ValueError, OverflowError) as exc:
        if str(exc).startswith("moment matrix n="):  # a refused table names itself
            raise
        raise type(exc)(f"n={n}: {exc}") from None
    ratio = above / below / selberg_ratio(n) if n else None
    if n and not math.isfinite(ratio):
        raise ValueError(f"n={n}: the pivot ratio p_{n + 1} / p_{n} = {above:.3g} / "
                         f"{below:.3g} is not finite in float64, so there is no ratio check")
    return {"n": n, "t": t.as_dict(), "tau": value, "selberg_ratio_check": ratio}


def moment_flow_residual(i: int, j: int, k: int, t: CouplingVector,
                         h: float, q: QuadratureConfig) -> float:
    """|central-difference d(mu_ij)/dt_k - (mu_{i+k,j} + mu_{i,j+k})|.

    Every shifted coupling vector must pass the integrability guard.  The
    five-point central stencil has O(h^4) truncation; the moments' third
    t-derivatives reach magnitude ~1e3, so at h = 1e-3 a three-point stencil
    (O(h^2)) would leave residuals of order 1e-4 that measure the stencil
    rather than the flow law.  Its four shifted vectors are built and
    checked once per (t, k, h) (``_stencil_for``), and every value is read
    through ``moment_mu``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    far, near, back, far_back = (moment_mu(i, j, s, q) for s in _stencil_for(t.key(), k, h))
    derivative = (-far + 8 * near - 8 * back + far_back) / (12 * h)
    flow = moment_mu(i + k, j, t, q) + moment_mu(i, j + k, t, q)
    return abs(derivative - flow)
