"""Fourier pseudospectral machinery on the periodic phase space.

Fields live on the unit spatial torus [0,1)^2 crossed with the heading
circle [0, 2 pi).  Physical arrays are laid out ``(x1, x2, theta)`` with
theta the fastest-varying index, so per-angle spatial slices are
contiguous.  Transforms are real-to-complex along x2 (the last spatial
axis), which halves coefficient storage; the coefficient layout is

    3-D: shape (n_x1, n_x2 // 2 + 1, n_theta),
         axis 0 = spatial mode m1 (full),  axis 1 = m2 (half),
         axis 2 = angular mode n (full);
    2-D: shape (n_x1, n_x2 // 2 + 1).

Spatial derivatives multiply by 2 pi i m, angular ones by i n.  Odd-order
derivative multipliers zero the Nyquist mode (an imaginary multiplier on
the self-conjugate mode would break the real round trip); squared
multipliers keep the full value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

TWO_PI = 2.0 * np.pi

_MAGIC = b"ANTK"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SpectralGrid:
    """Collocation grid sizes; all even and at least 8."""

    n_x1: int
    n_x2: int
    n_theta: int

    def __post_init__(self):
        for name in ("n_x1", "n_x2", "n_theta"):
            n = getattr(self, name)
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 8 or n % 2:
                raise ValueError(f"{name} must be even and >= 8, got {n}")

    # collocation points
    @cached_property
    def x1(self):
        return np.arange(self.n_x1) / self.n_x1

    @cached_property
    def x2(self):
        return np.arange(self.n_x2) / self.n_x2

    @cached_property
    def theta(self):
        return TWO_PI * np.arange(self.n_theta) / self.n_theta

    # integer wavenumbers matching the coefficient layout
    @cached_property
    def m1(self):
        return np.fft.fftfreq(self.n_x1, 1.0 / self.n_x1).astype(np.int64)

    @cached_property
    def m2(self):
        return np.fft.rfftfreq(self.n_x2, 1.0 / self.n_x2).astype(np.int64)

    @cached_property
    def n_modes(self):
        return np.fft.fftfreq(self.n_theta, 1.0 / self.n_theta).astype(np.int64)

    @property
    def shape_phys3(self):
        return (self.n_x1, self.n_x2, self.n_theta)

    @property
    def shape_four3(self):
        return (self.n_x1, self.n_x2 // 2 + 1, self.n_theta)

    @property
    def shape_phys2(self):
        return (self.n_x1, self.n_x2)

    @property
    def shape_four2(self):
        return (self.n_x1, self.n_x2 // 2 + 1)

    @property
    def cell_volume(self):
        return TWO_PI / (self.n_x1 * self.n_x2 * self.n_theta)

    @property
    def cell_area(self):
        return 1.0 / (self.n_x1 * self.n_x2)

    # derivative multipliers; odd order zeroes the Nyquist row
    def _zero_nyquist(self, modes, n):
        out = modes.astype(np.float64)
        out[np.abs(modes) == n // 2] = 0.0
        return out

    @cached_property
    def ik1_2d(self):
        m = self._zero_nyquist(self.m1, self.n_x1)
        return (2j * np.pi * m)[:, None]

    @cached_property
    def ik2_2d(self):
        m = self._zero_nyquist(self.m2, self.n_x2)
        return (2j * np.pi * m)[None, :]

    @cached_property
    def ik1_3d(self):
        return self.ik1_2d[:, :, None]

    @cached_property
    def ik2_3d(self):
        return self.ik2_2d[:, :, None]

    @cached_property
    def in_3d(self):
        n = self._zero_nyquist(self.n_modes, self.n_theta)
        return (1j * n)[None, None, :]

    # squared magnitudes, full Nyquist values
    @cached_property
    def ksq_2d(self):
        m1 = self.m1.astype(np.float64)[:, None]
        m2 = self.m2.astype(np.float64)[None, :]
        return (2.0 * np.pi) ** 2 * (m1 * m1 + m2 * m2)

    @cached_property
    def ksq_3d(self):
        return self.ksq_2d[:, :, None]

    @cached_property
    def nsq_3d(self):
        n = self.n_modes.astype(np.float64)
        return (n * n)[None, None, :]

    # Parseval weights for the half axis (axis 1)
    @cached_property
    def half_weights(self):
        w = np.full(self.n_x2 // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    @cached_property
    def cos_theta(self):
        return np.cos(self.theta)

    @cached_property
    def sin_theta(self):
        return np.sin(self.theta)

    @cached_property
    def dealias_mask3(self):
        keep1 = np.abs(self.m1) <= self.n_x1 // 3
        keep2 = np.abs(self.m2) <= self.n_x2 // 3
        keepn = np.abs(self.n_modes) <= self.n_theta // 3
        return keep1[:, None, None] & keep2[None, :, None] & keepn[None, None, :]


# --- raw transforms -------------------------------------------------------------


def fft3(values, out=None):
    """Forward transform of an (x1, x2, theta) array; x2 is the half axis.

    Without ``out`` scipy's ``rfftn`` allocates the result.  With it,
    numpy's 1-D transforms write into ``out`` in the order ``rfftn`` takes
    (real-to-complex along x2, then theta, then x1), which gives the same
    bits.
    """
    if out is None:
        return _fft.rfftn(values, axes=(2, 0, 1))
    np.fft.rfft(values, axis=1, out=out)
    np.fft.fft(out, axis=2, out=out)
    return np.fft.fft(out, axis=0, out=out)


def ifft3(coeffs, grid: SpectralGrid, out=None, work=None):
    """Inverse of :func:`fft3`; ``coeffs`` is never written.

    Without ``out`` and ``work`` scipy's ``irfftn`` allocates the result.
    With either, numpy's 1-D transforms run in ``irfftn``'s order: unscaled
    along theta, then x1, into the complex ``work``; complex-to-real along
    x2 into ``out``; then the one 1/N scale.  That gives the same bits.
    """
    if out is None and work is None:
        return _fft.irfftn(coeffs, s=(grid.n_theta, grid.n_x1, grid.n_x2), axes=(2, 0, 1))
    work = np.fft.ifft(coeffs, axis=2, norm="forward", out=work)
    np.fft.ifft(work, axis=0, norm="forward", out=work)
    out = np.fft.irfft(work, n=grid.n_x2, axis=1, norm="forward", out=out)
    out *= 1.0 / (grid.n_x1 * grid.n_x2 * grid.n_theta)
    return out


def fft2(values):
    return _fft.rfftn(values, axes=(0, 1))


def ifft2(coeffs, grid: SpectralGrid):
    return _fft.irfftn(coeffs, s=(grid.n_x1, grid.n_x2), axes=(0, 1))


# --- turning bias ---------------------------------------------------------------


def turning_bias_parts(c_hat, grid: SpectralGrid, tau: float):
    """The four spatial fields that generate the turning bias, in physical space.

    B(x, theta) = -sin(theta) g1 + cos(theta) g2 + sin(2 theta) s + cos(2 theta) r
    with g = grad c, s = tau (c22 - c11) / 2, r = tau c12, from the 2-D
    coefficients ``c_hat``.  Only angular modes +-1 and +-2 ever appear.
    The gradient zeroes the Nyquist row; the Hessian multipliers are real,
    so they keep the full Nyquist values and c12 == c21 exactly.
    """
    g1 = ifft2(grid.ik1_2d * c_hat, grid)
    g2 = ifft2(grid.ik2_2d * c_hat, grid)
    if tau == 0.0:
        zero = np.zeros(grid.shape_phys2)
        return g1, g2, zero, zero
    m1 = (2.0 * np.pi * grid.m1.astype(np.float64))[:, None]
    m2 = (2.0 * np.pi * grid.m2.astype(np.float64))[None, :]
    c11 = ifft2(-(m1 * m1) * c_hat, grid)
    c12 = ifft2(-(m1 * m2) * c_hat, grid)
    c22 = ifft2(-(m2 * m2) * c_hat, grid)
    return g1, g2, 0.5 * tau * (c22 - c11), tau * c12


def expand_bias(parts, grid: SpectralGrid, out=None, work=None):
    """The phase-space field -sin(theta) a + cos(theta) b + sin(2 theta) s + cos(2 theta) r.

    With ``parts = (g1, g2, s, r)`` from :func:`turning_bias_parts` this is
    the turning bias B; with the rotated parts ``(g2, -g1, -2 r, 2 s)`` it
    is the angular derivative d_theta B.  The terms are summed left to
    right, into ``out`` when given, each formed in ``work`` when given.
    """
    a, b, s, r = parts
    th = grid.theta
    out = np.multiply(-np.sin(th)[None, None, :], a[:, :, None], out=out)
    for wave, part in ((np.cos(th), b), (np.sin(2.0 * th), s), (np.cos(2.0 * th), r)):
        out += np.multiply(wave[None, None, :], part[:, :, None], out=work)
    return out


# --- norms ----------------------------------------------------------------------


def l2_norm3_hat(f_hat, grid: SpectralGrid) -> float:
    """L^2(x, theta) norm from 3-D coefficients (Parseval, half axis weighted)."""
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    s = np.sum(grid.half_weights[None, :, None] * np.abs(f_hat) ** 2)
    return float(np.sqrt(TWO_PI * s) / n_tot)


def lp_norm_phys(values, p: float, cell_measure: float) -> float:
    """Collocation L^p norm with the given cell measure."""
    return float((np.sum(np.abs(values) ** p) * cell_measure) ** (1.0 / p))


# --- serialization --------------------------------------------------------------


def _field_shape(grid: SpectralGrid, ndim: int, fourier: bool):
    if ndim == 2:
        return grid.shape_four2 if fourier else grid.shape_phys2
    return grid.shape_four3 if fourier else grid.shape_phys3


def write_field(path, values, grid: SpectralGrid) -> None:
    """Serialize a 2-D or 3-D field (header + row-major little-endian payload).

    Physical (real) data is stored as float64 with representation flag 0,
    Fourier (complex) data as interleaved (re, im) float64 pairs with flag
    1.  A 2-D spatial field is marked by n_theta = 0 in the header.
    """
    values = np.ascontiguousarray(values)
    fourier = np.iscomplexobj(values)
    expected = _field_shape(grid, values.ndim, fourier)
    if values.shape != expected:
        raise ValueError(f"field shape {values.shape} does not match grid {expected}")
    n_theta = 0 if values.ndim == 2 else grid.n_theta
    header = _MAGIC + struct.pack(
        "<5I", _FORMAT_VERSION, grid.n_x1, grid.n_x2, n_theta, int(fourier)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.astype("<c16" if fourier else "<f8", copy=False).tobytes())


def read_field(path, grid: SpectralGrid | None = None):
    """Read a serialized field as ``(values, grid)``.

    Validates magic, version, representation flag and payload size, and,
    when ``grid`` is given, that the stored grid matches it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    version, n_x1, n_x2, n_theta, rep_flag = struct.unpack("<5I", raw[4:24])
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if rep_flag not in (0, 1):
        raise ValueError(f"{path}: unknown representation flag {rep_flag}")
    if grid is None:
        grid = SpectralGrid(n_x1, n_x2, n_theta if n_theta else 8)
    elif (grid.n_x1, grid.n_x2) != (n_x1, n_x2) or (n_theta and grid.n_theta != n_theta):
        raise ValueError(
            f"{path}: stored grid ({n_x1}, {n_x2}, {n_theta}) does not match "
            f"({grid.n_x1}, {grid.n_x2}, {grid.n_theta})"
        )
    shape = _field_shape(grid, 2 if n_theta == 0 else 3, rep_flag == 1)
    payload = np.frombuffer(raw[24:], dtype="<c16" if rep_flag else "<f8")
    if payload.size != int(np.prod(shape)):
        raise ValueError(
            f"{path}: payload has {payload.size} entries, expected {int(np.prod(shape))}"
        )
    return payload.reshape(shape).copy(), grid
