"""Reference routes that more than one test file checks the package against:
the projection onto the lower-triangular factor of the splitting, the
band-state JSON form and the slot-by-slot random band state."""

from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from pfaffchain.lax import LaxBands, _block_mask, _minus_reflected


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
