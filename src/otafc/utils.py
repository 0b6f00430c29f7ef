"""Shared helpers: the reading rules for counts, reals and arrays, complex
Gaussian draws, Hermitization.

The config readers and the library constructors read a count with integer
and a real with real, and check a range with positive; the constructors
keep every array as read by read_only. So a value is read the same way
wherever it enters.
"""

import numpy as np


def integer(v, low=None, name="") -> int:
    """v as an int: an int, a numpy integer or an integral float, never a
    bool (int(True) is 1), and >= low when low is given; else ValueError."""
    if (isinstance(v, bool) or not (isinstance(v, (int, np.integer))
                                    or isinstance(v, float) and v.is_integer())
            or low is not None and v < low):
        at_least = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{at_least}, got {v!r}".lstrip())
    return int(v)


def real(v, name="") -> float:
    """v as a float, never a bool (float(True) is 1.0); a numeric string reads."""
    if isinstance(v, bool):
        raise ValueError(f"{name} must be a number, got {v!r}".lstrip())
    return float(v)


def positive(v, zero=False) -> bool:
    """Whether every entry of v, a number or an array, is finite and > 0, or
    >= 0 with zero; NaN is neither."""
    v = np.asarray(v, dtype=float)
    return bool((((v >= 0) if zero else (v > 0)) & (v < np.inf)).all())


def positive_real(v, name: str, zero=False) -> float:
    """v read by real and checked by positive; a ValueError starts with name."""
    v = real(v, name)
    if not positive(v, zero):
        want = "finite and >= 0" if zero else "positive and finite"
        raise ValueError(f"{name} must be {want}, got {v!r}")
    return v


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Draw i.i.d. circular complex Gaussian CN(0, var) samples.

    Real and imaginary parts each carry var/2 so the per-entry second
    moment E|x|^2 equals var.
    """
    var = positive_real(var, "variance", zero=True)
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


def _numeric(a) -> bool:
    """Whether a is a number or a numeric array, or a list or tuple of them;
    a bool is not a number (np.asarray([True, 2.0]) hides it, so lists are
    scanned)."""
    return (all(map(_numeric, a)) if isinstance(a, (list, tuple))
            else np.asarray(a).dtype.kind in "iufc")


def read_only(a, dtype, name: str, above_zero=False) -> np.ndarray:
    """A read-only copy of a, as dtype unless None; a itself is not touched.
    ValueError naming name unless every entry is a finite number, never a
    bool, and with above_zero also > 0."""
    out = np.array(a, dtype=dtype) if _numeric(a) else None
    if out is None or not (positive(out) if above_zero else np.isfinite(out).all()):
        want = "positive and finite" if above_zero else "finite"
        raise ValueError(f"{name} entries must be {want} numbers, not booleans")
    out.flags.writeable = False
    return out


def read_each(arrays, dtype, name: str, above_zero=False) -> tuple:
    """read_only of each array in turn, the l-th named name[l]."""
    return tuple(read_only(a, dtype, f"{name}[{l}]", above_zero) for l, a in enumerate(arrays))
