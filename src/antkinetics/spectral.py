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

Every transform runs numpy's 1-D passes in scipy's ``rfftn``/``irfftn`` order,
which gives their bits: r2c along x2, then c2c along theta (3-D) and x1;
inverse, the c2c passes unscaled, c2r along x2, then a single 1/N scale.
``fft3(values, keep=K)`` prunes the forward transform to the columns
m2 <= K: the r2c pass runs in full and the c2c passes only on those
columns, which then carry the full transform's bits, since each 1-D line
is transformed on its own.  The 2/3-dealiased right-hand side uses it.
The same holds for a leading batch axis: :func:`turning_bias_parts` inverts
its two or five spatial fields in one c2c and one c2r pass over a stack,
with each field's own 1/(n_x1 n_x2) scale, and gets the bits of one
:func:`ifft2` per field.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi

_COEFFS = np.dtype("<c16")  # interleaved little-endian (re, im) float64


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

    # the turning bias: its four angular waves, and the multipliers of the
    # gradient (g1, g2) and the Hessian (c11, c12, c22), stacked as complex
    @cached_property
    def bias_waves(self):
        th = self.theta
        waves = (-np.sin(th), np.cos(th), np.sin(2.0 * th), np.cos(2.0 * th))
        return tuple(wave[None, None, :] for wave in waves)

    @cached_property
    def bias_multipliers(self):
        m1 = (2.0 * np.pi * self.m1.astype(np.float64))[:, None]
        m2 = (2.0 * np.pi * self.m2.astype(np.float64))[None, :]
        multipliers = (self.ik1_2d, self.ik2_2d, -(m1 * m1), -(m1 * m2), -(m2 * m2))
        return np.stack(np.broadcast_arrays(*multipliers))

    # Parseval weights of the observables: H^1 of f, |grad c|^2 and |Hess c|^2
    @cached_property
    def sobolev_weights3(self):
        return self.half_weights[None, :, None] * (1.0 + self.ksq_3d + self.nsq_3d)

    @cached_property
    def gradient_weights2(self):
        return self.half_weights[None, :] * self.ksq_2d

    @cached_property
    def hessian_weights2(self):
        return self.half_weights[None, :] * self.ksq_2d**2

    @cached_property
    def dealias_mask3(self):
        keep1 = np.abs(self.m1) <= self.n_x1 // 3
        keep2 = np.abs(self.m2) <= self.n_x2 // 3
        keepn = np.abs(self.n_modes) <= self.n_theta // 3
        return keep1[:, None, None] & keep2[None, :, None] & keepn[None, None, :]


# --- raw transforms -------------------------------------------------------------


def _forward(values, c2c_axes, out=None, keep=None):
    out = np.fft.rfft(values, axis=1, out=out)
    kept = out if keep is None else out[:, : keep + 1]
    for axis in c2c_axes:
        np.fft.fft(kept, axis=axis, out=kept)
    return out


def _inverse(coeffs, n_x2, c2c_axes, out=None, work=None, half_axis=1):
    # any axis that is neither c2c nor the half axis is a batch of fields
    for axis in c2c_axes:
        coeffs = work = np.fft.ifft(coeffs, axis=axis, norm="forward", out=work)
    out = np.fft.irfft(coeffs, n=n_x2, axis=half_axis, norm="forward", out=out)
    out *= 1.0 / math.prod(out.shape[axis] for axis in (half_axis, *c2c_axes))
    return out


def fft3(values, out=None, keep=None):
    """Forward transform of an (x1, x2, theta) array; x2 is the half axis.

    With ``keep = K`` only the columns m2 <= K are coefficients, with the
    full transform's bits; the columns m2 > K hold the x2 pass alone and
    are not coefficients, so the caller must discard them.
    """
    return _forward(values, (2, 0), out, keep)


def ifft3(coeffs, grid: SpectralGrid, out=None, work=None):
    """Inverse of :func:`fft3`, through the complex ``work`` into ``out`` when
    given; ``coeffs`` is never written."""
    return _inverse(coeffs, grid.n_x2, (2, 0), out, work)


def fft2(values):
    return _forward(values, (0,))


def ifft2(coeffs, grid: SpectralGrid):
    return _inverse(coeffs, grid.n_x2, (0,))


# --- turning bias ---------------------------------------------------------------


def turning_bias_parts(c_hat, grid: SpectralGrid, tau: float):
    """The spatial fields that generate the turning bias, in physical space.

    B(x, theta) = -sin(theta) g1 + cos(theta) g2 + sin(2 theta) s + cos(2 theta) r
    with g = grad c, s = tau (c22 - c11) / 2, r = tau c12, from the 2-D
    coefficients ``c_hat``.  Only angular modes +-1 and +-2 ever appear.
    The gradient zeroes the Nyquist row; the Hessian multipliers are real,
    so they keep the full Nyquist values and c12 == c21 exactly.  Returns
    ``(g1, g2)`` at tau = 0, where s and r vanish, else ``(g1, g2, s, r)``;
    g1 and g2 are views of one array, which the caller must not write.

    The multiplied coefficients are stacked and inverted in one batched
    pass.  numpy transforms each 1-D line on its own and each field keeps
    its own 1/(n_x1 n_x2) scale, so every part has the bits of one
    :func:`ifft2` per field.
    """
    multipliers = grid.bias_multipliers[:2] if tau == 0.0 else grid.bias_multipliers
    fields = _inverse(multipliers * c_hat, grid.n_x2, (1,), half_axis=2)
    if tau == 0.0:
        return fields[0], fields[1]
    g1, g2, c11, c12, c22 = fields
    return g1, g2, 0.5 * tau * (c22 - c11), tau * c12


def expand_bias(parts, grid: SpectralGrid, out=None, work=None):
    """The phase-space field -sin(theta) a + cos(theta) b + sin(2 theta) s + cos(2 theta) r.

    With ``parts`` from :func:`turning_bias_parts` this is the turning bias
    B; with the rotated parts ``(g2, -g1)`` or ``(g2, -g1, -2 r, 2 s)`` it
    is the angular derivative d_theta B.  Only the terms given are summed:
    two parts ``(a, b)`` stand for s = r = 0.  The terms are summed left to
    right, into ``out`` when given, each formed in ``work`` when given.
    """
    waves = grid.bias_waves
    out = np.multiply(waves[0], parts[0][:, :, None], out=out)
    for wave, part in zip(waves[1:], parts[1:]):
        out += np.multiply(wave, part[:, :, None], out=work)
    return out


# --- norms ----------------------------------------------------------------------


def half_axis_power(coeffs, grid: SpectralGrid):
    """Parseval sum of 3-D coefficients: ``(sq, power, total)`` with sq = |coeffs|^2,
    power its entries weighted for the half axis, and total the sum of power."""
    sq = np.abs(coeffs) ** 2
    power = grid.half_weights[None, :, None] * sq
    return sq, power, float(np.sum(power))


def l2_norm3_hat(f_hat, grid: SpectralGrid) -> float:
    """L^2(x, theta) norm from 3-D coefficients (Parseval, half axis weighted)."""
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    return float(np.sqrt(TWO_PI * half_axis_power(f_hat, grid)[2]) / n_tot)


def lp_norm_phys(values, p: float, cell_measure: float) -> float:
    """Collocation L^p norm with the given cell measure."""
    return float((np.sum(np.abs(values) ** p) * cell_measure) ** (1.0 / p))


# --- serialization --------------------------------------------------------------


def write_field(path, values, grid: SpectralGrid) -> None:
    """Store 2-D or 3-D Fourier coefficients as a ``.npy`` file of ``<c16``.

    The array must have the coefficient shape that ``grid`` implies for its
    dimension; a real array is refused.
    """
    values = np.ascontiguousarray(values)
    if not np.iscomplexobj(values):
        raise ValueError(f"field of shape {values.shape} and dtype {values.dtype} "
                         "is not complex: only Fourier coefficients are stored")
    expected = grid.shape_four2 if values.ndim == 2 else grid.shape_four3
    if values.shape != expected:
        raise ValueError(f"field shape {values.shape} does not match grid {expected}")
    with open(path, "wb") as fh:
        np.save(fh, values.astype(_COEFFS, copy=False), allow_pickle=False)


def read_field(path, grid: SpectralGrid):
    """Read the coefficients that :func:`write_field` stored on ``grid``.

    Refuses, naming the file, anything but a version 1.0 ``.npy`` file of
    C-ordered ``<c16`` in the 2-D or 3-D coefficient shape of ``grid`` and
    exactly that many payload bytes; the header is checked before any
    payload is allocated.
    """
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"unsupported .npy format version {version}")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a coefficient file: {exc}") from None
        if dtype != _COEFFS or fortran_order:
            raise ValueError(f"{path}: holds {dtype.str} (fortran_order {fortran_order}), "
                             f"not C-ordered {_COEFFS.str} coefficients")
        if len(shape) not in (2, 3):
            raise ValueError(f"{path}: stored shape {shape} is not a coefficient shape")
        if shape != (grid.shape_four2 if len(shape) == 2 else grid.shape_four3):
            stored = (shape[0], 2 * (shape[1] - 1), shape[2] if len(shape) == 3 else 0)
            raise ValueError(f"{path}: stored grid {stored} does not match "
                             f"({grid.n_x1}, {grid.n_x2}, {grid.n_theta})")
        values = np.empty(shape, _COEFFS)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != values.nbytes or fh.readinto(values) != payload:
            raise ValueError(f"{path}: payload has {payload} bytes, expected {values.nbytes}")
    return values
