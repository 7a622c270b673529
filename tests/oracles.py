"""Reference routes that tests check the package against: the pivoted
Pfaffian, the inverse Q = Lf^-1 of the skew factor, the projection onto the
lower-triangular factor of the splitting, the band-state JSON form,
the slot-by-slot random band state, the band-by-band sum of the flow tables,
the closed-form bands of the Gaussian orbit and of its thermodynamic limit,
the printed Gibbons-Tsarev system, the closure's involutivity and the
tangent solve on reduced Fractions, and the even chain's conserved
densities."""

import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from pfaffchain.ensemble import _as_skew_array, _below_blocks, skew_factor
from pfaffchain.integrability import TensorPoint, paper_chain_spec
from pfaffchain.lax import LaxBands, _block_mask, _minus_reflected, flow_terms
from pfaffchain.poly import Poly


def pfaffian(m) -> float:
    """pf(m) with pf(m)^2 = det(m); pf([[0, a], [-a, 0]]) = +a.

    Parlett-Reid skew tridiagonalisation with partial pivoting, parity
    tracked (Wimmer, ACM TOMS 38 (2012)), for any finite antisymmetric
    matrix, refused as ``ensemble.skew_factor`` refuses one.  Raises
    OverflowError at the step where the running product leaves float64.
    The package's taus come from the elimination without pivoting
    (``ensemble._skew_elimination``), which this route checks.
    """
    a = _as_skew_array(m).copy()
    n = a.shape[0]
    value = 1.0
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.abs(a[k + 1:, k]).argmax())
        if a[pivot, k] == 0.0:
            return 0.0
        if pivot != k + 1:
            a[[k + 1, pivot], :] = a[[pivot, k + 1], :]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            value = -value
        value *= float(a[k, k + 1])
        if not math.isfinite(value):
            raise OverflowError(f"the Pfaffian of the {n}x{n} matrix overflows float64")
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return value


def inverse_skew_factor(m) -> np.ndarray:
    """Q = Lf^-1, lower-triangular with scalar 2x2 diagonal blocks and
    Q m Q^T = J, for the factor m = Lf J Lf^T of ``ensemble.skew_factor``
    (with its refusals).  The block shape is set structurally: below the
    diagonal blocks Q is Lf^-1, each diagonal block is Lf's inverted
    exactly, and above is zero."""
    Lf = skew_factor(m)
    return np.where(_below_blocks(len(Lf)), np.linalg.inv(Lf), np.diag(1 / np.diag(Lf)))


def project_t(A: np.ndarray) -> np.ndarray:
    """Projection onto the lower-triangular factor of the splitting.

    A_t = A_lo - J A_up^T J + (A_blk - J A_blk^T J)/2 with A_up/A_lo strict
    block-triangular parts and A_blk the 2x2 diagonal blocks.  With
    X = A - J A^T J (J A^T J a signed permutation of A's entries, see
    ``lax._minus_reflected``) that is X/2 on the diagonal blocks, the strict
    lower triangle of X below them and zero above.
    """
    X = _minus_reflected(A)
    half = Fraction(1, 2) if A.dtype == object else 0.5
    return np.where(_block_mask(len(A)), X * half, np.tril(X, -1))


def bands_to_json(b: LaxBands) -> dict:
    return {
        "N": b.sites,
        "K": b.depth,
        "even": b.even_reduced,
        "w": sorted([k, n, float(val)] for (k, n), val in b.w.items()),
        "v": sorted([k, n, float(val)] for (k, n), val in b.v.items()),
    }


def bands_from_json(obj: Mapping) -> LaxBands:
    return LaxBands(
        sites=int(obj["N"]),
        depth=int(obj["K"]),
        w={(int(k), int(n)): float(val) for k, n, val in obj.get("w", [])},
        v={(int(k), int(n)): float(val) for k, n, val in obj.get("v", [])},
        even_reduced=bool(obj.get("even", False)),
    )


def random_bands_from_slots(rng, sites: int, depth: int, even: bool = False,
                            exact: bool = False) -> LaxBands:
    """``lax.random_bands`` as {(k, n): value} dicts through the dict
    constructor: w then v, band by band, site by site."""

    def draw():
        if exact:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.uniform(-2.0, 2.0)

    w = {(k, n): draw() for k in range(-depth, depth + 1)
         for n in range(1, sites + 1)}
    v = {} if even else {(k, n): draw() for k in range(-depth, depth + 1)
                         for n in range(1, sites + 1)}
    return LaxBands(sites=sites, depth=depth, w=w, v=v, even_reduced=even)


def flow_band_by_band(b: LaxBands, flow_k: int, even: bool) -> np.ndarray:
    """The ``flow_terms`` flow of every slot of ``b``, as (kinds, 2 depth + 1,
    sites) rows, summed one band at a time: each table term by term in
    sorted order, into a zero row, over zero-filled site shifts of the
    factor rows, a +-1 coefficient as an add or a subtract and any other
    one (as a float on float rows) multiplied in.  The compiled evaluator
    must match it bit for bit on float rows and exactly on Fraction rows."""
    kinds, bands, n = b.rows.shape
    exact = b.rows.dtype == object

    def field(kind, band, m):
        out = np.zeros(n, b.rows.dtype)
        i = "wv".index(kind)
        if i < kinds and abs(band) <= b.depth:
            row = b.rows[i, band + b.depth]
            if m > 0:
                out[:-m] = row[m:]
            elif m < 0:
                out[-m:] = row[:m]
            else:
                out[:] = row
        return out

    sums = np.zeros(b.rows.shape, b.rows.dtype)
    for i, kind in enumerate("wv"[:kinds]):
        for k in range(-b.depth, b.depth + 1):
            acc = np.zeros(n, b.rows.dtype)
            for (first, *rest), coeff in sorted(flow_terms(flow_k, kind, k, even).terms.items()):
                prod = field(*first)
                for f in rest:
                    prod = prod * field(*f)
                if coeff == 1:
                    acc += prod
                elif coeff == -1:
                    acc -= prod
                else:
                    acc += (coeff if exact else float(coeff)) * prod
            sums[i, k + b.depth] = acc
    return sums


def gaussian_orbit_band(k: int, n: int, sqrt=math.sqrt):
    """w^k_n of the zero-coupling (t = 0) Lax matrix in closed form:
    w^0_n = sqrt(n (2n - 1) / 2) = -w^-2_n, w^-1_n = 1/2, w^k_n = 0 below
    k = -2, and w^k_n = sqrt(4 (n)_k / (n - 1/2)_k) for k >= 1, with (a)_k
    the rising factorial a (a + 1) ... (a + k - 1).  The square is an exact
    Fraction; ``sqrt`` takes it to the returned number type."""
    if k >= 1:
        square = 4 * math.prod(Fraction(n + i) / (n - Fraction(1, 2) + i) for i in range(k))
    else:
        square = {0: Fraction(n * (2 * n - 1), 2), -1: Fraction(1, 4),
                  -2: Fraction(n * (2 * n - 1), 2)}.get(k, Fraction(0))
    return -sqrt(square) if k == -2 else sqrt(square)


def gaussian_orbit_limit(k: int, x, t, c):
    """u^k(x, t) of the Gaussian orbit's thermodynamic limit at leading order:
    u^0 = -u^-2 = x / (1 - 2t), u^-1 = c / (1 - 2t), u^k = 2 for k >= 1 and
    u^k = 0 below k = -2.  The eps-scaled weight exp(-x^2 / (2 eps) + t2 x^2)
    has variance eps / (1 - 2t) at the chain time t = eps t2, and each band is
    (eps / (1 - 2t))^(a_k / 2) ``gaussian_orbit_band`` read at real n = x / eps,
    with a_k = 2 for k <= 0 and 0 above, so c = eps / 2 on the orbit.  x, t
    and c may be numbers or symbols."""
    if k in (0, -2):
        return (1 if k == 0 else -1) * x / (1 - 2 * t)
    if k == -1:
        return c / (1 - 2 * t)
    return 2 if k >= 1 else 0


def gibbons_tsarev(lam_i, lam_j, u0, diu0, dju0, diu1, dju1, c_lam=4):
    """d_j lambda^i, d_i d_j u^0 and d_i d_j u^1 for a distinct pair (i, j),
    formula by formula as ``reductions`` prints the Gibbons-Tsarev system,
    with the constant ``c_lam`` in place of the 4 of d_j lambda^i only.  The
    "- (i <-> j)" of d_i d_j u^1 subtracts its printed term with i and j
    swapped, so the value is symmetric in (i, j)."""
    def u1_term(lam_i, lam_j, diu0, dju1):
        return ((lam_j - 2 * lam_i) * lam_j + 4 * u0 ** 2) / (u0 * (lam_i - lam_j) ** 2) \
            * diu0 * dju1

    return ((c_lam * u0 ** 2 - lam_i * lam_j) / (u0 * (lam_i - lam_j)) * dju0,
            (lam_i ** 2 + lam_j ** 2 - 8 * u0 ** 2) / (u0 * (lam_i - lam_j) ** 2) * diu0 * dju0,
            -u1_term(lam_i, lam_j, diu0, dju1) - u1_term(lam_j, lam_i, dju0, diu1))


class JetNum:
    """A value with its derivatives along the directions R^1..R^N.

    A slot is None when the direction's action on the underlying coordinate
    is not supplied by the closure (diagonal derivatives such as d_i
    lambda^i); arithmetic propagates None so reading such a slot is an error
    only if it is actually needed.
    """

    __slots__ = ("val", "d")

    def __init__(self, val: Fraction, d: tuple):
        self.val = val
        self.d = d

    @staticmethod
    def const(c, n: int) -> "JetNum":
        return JetNum(Fraction(c), (Fraction(0),) * n)

    def _coerce(self, other) -> "JetNum":
        if isinstance(other, JetNum):
            return other
        return JetNum.const(other, len(self.d))

    @staticmethod
    def _zip(a, b, op):
        return tuple(None if (x is None or y is None) else op(x, y)
                     for x, y in zip(a, b))

    def __add__(self, other):
        o = self._coerce(other)
        return JetNum(self.val + o.val, self._zip(self.d, o.d, lambda x, y: x + y))

    __radd__ = __add__

    def __neg__(self):
        return JetNum(-self.val, tuple(None if x is None else -x for x in self.d))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        d = tuple(None if (x is None or y is None)
                  else x * o.val + self.val * y
                  for x, y in zip(self.d, o.d))
        return JetNum(self.val * o.val, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        val = self.val / o.val
        d = tuple(None if (x is None or y is None)
                  else (x * o.val - self.val * y) / (o.val * o.val)
                  for x, y in zip(self.d, o.d))
        return JetNum(val, d)

    def __pow__(self, n: int):
        out = JetNum.const(1, len(self.d))
        for _ in range(n):
            out = out * self
        return out

    def slot(self, k: int) -> Fraction:
        v = self.d[k - 1]
        if v is None:
            raise ValueError(f"derivative along R^{k} is not closed for this value")
        return v


def oracle_involutivity(jet, c_lam: Fraction) -> dict[str, Fraction]:
    """``reductions.gt_involutivity`` by forward mode over all directions at
    once on reduced Fractions: JetNum coordinates carry every direction's
    derivative, each the printed system's value (``c_lam`` is the constant
    of its d_j lambda^i formula)."""
    idx = (1, 2, 3)

    def printed(i, j):  # the closure values of the pair (i, j) at the jet
        return gibbons_tsarev(jet.lam[i], jet.lam[j], jet.u0, jet.du0[i], jet.du0[j],
                              jet.du1[i], jet.du1[j], c_lam)

    u0 = JetNum(jet.u0, tuple(jet.du0[k] for k in idx))
    lam, du0, du1 = ({i: JetNum(values[i], tuple(None if k == i else printed(i, k)[n]
                                                 for k in idx)) for i in idx}
                     for n, values in enumerate((jet.lam, jet.du0, jet.du1)))

    def d(i, j):  # the closure values of the pair (i, j) over the JetNums
        return gibbons_tsarev(lam[i], lam[j], u0, du0[i], du0[j], du1[i], du1[j], c_lam)

    residuals = {}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        names = (f"lambda^{i}: d{k}d{j} - d{j}d{k}", f"u0: d{k}d{i}d{j} - d{j}d{i}d{k}",
                 f"u1: d{k}d{i}d{j} - d{j}d{i}d{k}")
        for name, a, b in zip(names, d(i, j), d(i, k)):
            residuals[name] = a.slot(k) - b.slot(j)
    return residuals


def fraction_tangent(jet, i: int, depth: int) -> tuple[dict, Fraction]:
    """d_i u^k for |k| <= depth, solved row by row in the order of
    ``reductions.tangent_recursion`` on reduced Fractions from the Fraction
    engine's rows at the jet's u-window, and the largest row defect over
    |k| <= depth - 1."""
    rows = TensorPoint(paper_chain_spec(), jet.u_window)
    lam, du = jet.lam[i], {0: jet.du0[i], 1: jet.du1[i]}

    def defect(k, unknown=None):
        return lam * du[k] - sum(a * du[j] for j, a in rows.row(k).items() if j != unknown)

    for k, target in ([(0, -1)] + [(k, k + 1) for k in range(1, depth)]
                      + [(k, k - 1) for k in range(-1, -depth, -1)]):
        du[target] = defect(k, target) / rows.row(k)[target]
    worst = max(abs(defect(k)) for k in range(1 - depth, depth))
    return {k: v for k, v in du.items() if abs(k) <= depth}, worst


def chain_density(j: int) -> Poly:
    """h_j for j in {2, 4, 6}, a conserved density of the even chain: the
    lattice density rho_j(n) = (L^j)_{2n-1,2n-1} + (L^j)_{2n,2n} with every
    site offset set to 0, over the chain components u^p as variables p."""
    u = Poly.u
    if j == 2:
        return 2 * (u(-1) + u(0) * u(1))
    if j == 4:
        return (4 * u(-2) * u(0) + 2 * u(-1) * u(-1) + 8 * u(-1) * u(0) * u(1)
                + 2 * u(0) * u(0) * u(1) * u(1) + 4 * u(0) * u(0) * u(2))
    if j == 6:
        cube = u(0) * u(0) * u(0)
        return (6 * u(-3) * u(0) * u(0) + 12 * u(-2) * u(-1) * u(0)
                + 18 * u(-2) * u(0) * u(0) * u(1) + 2 * u(-1) * u(-1) * u(-1)
                + 18 * u(-1) * u(-1) * u(0) * u(1) + 18 * u(-1) * u(0) * u(0) * u(1) * u(1)
                + 18 * u(-1) * u(0) * u(0) * u(2) + 2 * cube * u(1) * u(1) * u(1)
                + 12 * cube * u(1) * u(2) + 6 * cube * u(3))
    raise ValueError(f"no density h_{j} here; j is 2, 4 or 6")
