"""Shared numeric helpers: complex Gaussian draws, Hermitization, read-only copies."""

import numpy as np


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Draw i.i.d. circular complex Gaussian CN(0, var) samples.

    Real and imaginary parts each carry var/2 so the per-entry second
    moment E|x|^2 equals var.
    """
    if var < 0:
        raise ValueError(f"variance must be nonnegative, got {var}")
    if isinstance(shape, (int, np.integer)):
        shape = (shape,)
    z = rng.standard_normal((2, *shape))  # real parts first, as two draws of `shape`
    scale, out = np.sqrt(var / 2.0), np.empty(shape, dtype=complex)
    np.multiply(z[0], scale, out=out.real)  # the parts in place: no temporaries
    np.multiply(z[1], scale, out=out.imag)
    return out


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix to kill rounding skew."""
    return 0.5 * (m + m.conj().T)


def read_only(a, dtype=None) -> np.ndarray:
    """A read-only copy of a, as dtype when given; a itself is not touched."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out
