"""Reference routes that tests check the package against: the projection
onto the lower-triangular factor of the splitting, the band-state JSON form,
the slot-by-slot random band state, the band-by-band sum of the flow tables,
the closed-form bands of the Gaussian orbit, the printed Gibbons-Tsarev
system and the even chain's conserved densities."""

import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from pfaffchain.lax import LaxBands, _block_mask, _minus_reflected, flow_terms
from pfaffchain.poly import Poly


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
