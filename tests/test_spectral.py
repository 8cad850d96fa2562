import ast
import math
import pathlib
import re
import struct

import numpy as np
import pytest
import scipy.fft

import antkinetics
from antkinetics.spectral import (
    SpectralGrid,
    expand_bias,
    fft2,
    fft3,
    ifft2,
    ifft3,
    l2_norm3_hat,
    lp_norm_phys,
    read_field,
    turning_bias_parts,
    write_field,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def grid():
    return SpectralGrid(16, 12, 16)


def phase_mesh(grid):
    return np.meshgrid(grid.x1, grid.x2, grid.theta, indexing="ij")


@pytest.mark.parametrize("bad", [(7, 12, 16), (16, 12, 9), (4, 12, 16), (16, 6, 16)])
def test_grid_rejects_odd_or_tiny_sizes(bad):
    with pytest.raises(ValueError):
        SpectralGrid(*bad)


def test_grid_spacings(grid):
    assert grid.cell_volume == pytest.approx(TWO_PI / (16 * 12 * 16))
    assert grid.cell_area == pytest.approx(1.0 / (16 * 12))
    assert grid.x1[1] == pytest.approx(1.0 / 16)
    assert grid.theta[1] == pytest.approx(TWO_PI / 16)


def test_fft_roundtrip(grid):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid.shape_phys3)
    np.testing.assert_allclose(ifft3(fft3(f), grid), f, atol=1e-12)
    c = rng.standard_normal(grid.shape_phys2)
    np.testing.assert_allclose(ifft2(fft2(c), grid), c, atol=1e-12)


@pytest.mark.parametrize(
    "shape", [(16, 16, 16), (8, 12, 16), (12, 8, 16), (32, 32, 32), (64, 64, 64)]
)
def test_transforms_match_scipy_bit_for_bit(shape):
    """fft3 and ifft3, with and without buffers, and fft2 and ifft2 on the
    spatial grid give scipy's rfftn and irfftn to the bit; the pinned
    trajectories of test_golden rest on this.  A 12 x 8 grid tells a single
    1/N scale from numpy's irfftn, which scales once per axis."""
    grid = SpectralGrid(*shape)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(grid.shape_phys3)
    expect_hat = scipy.fft.rfftn(values, axes=(2, 0, 1))
    out_hat = np.empty(grid.shape_four3, dtype=complex)
    assert np.array_equal(fft3(values), expect_hat)
    assert fft3(values, out=out_hat) is out_hat
    assert np.array_equal(out_hat, expect_hat)

    # pruned: the r2c pass in full, the c2c passes on the kept columns only
    for keep in (0, grid.n_x2 // 3, grid.n_x2 // 2):
        kept = slice(0, keep + 1)
        assert fft3(values, keep=keep)[:, kept].tobytes() == expect_hat[:, kept].tobytes()
        out_hat.fill(np.nan)
        assert fft3(values, out=out_hat, keep=keep) is out_hat
        assert out_hat[:, kept].tobytes() == expect_hat[:, kept].tobytes()
        assert np.array_equal(out_hat[:, keep + 1:], np.fft.rfft(values, axis=1)[:, keep + 1:])

    # a spectrum of a real field, and one without Hermitian symmetry
    arbitrary = rng.standard_normal(grid.shape_four3) + 1j * rng.standard_normal(grid.shape_four3)
    for coeffs in (expect_hat, arbitrary):
        kept = coeffs.copy()
        expect = scipy.fft.irfftn(coeffs, s=(grid.n_theta, grid.n_x1, grid.n_x2), axes=(2, 0, 1))
        out = np.empty(grid.shape_phys3)
        work = np.empty(grid.shape_four3, dtype=complex)
        assert np.array_equal(ifft3(coeffs, grid), expect)
        assert ifft3(coeffs, grid, out=out, work=work) is out
        assert np.array_equal(out, expect)
        assert np.array_equal(ifft3(coeffs, grid, out=np.empty(grid.shape_phys3)), expect)
        assert np.array_equal(ifft3(coeffs, grid, work=work), expect)
        assert np.array_equal(coeffs, kept)

    plane = rng.standard_normal(grid.shape_phys2)
    plane_hat = scipy.fft.rfftn(plane, axes=(0, 1))
    assert np.array_equal(fft2(plane), plane_hat)
    arbitrary = rng.standard_normal(grid.shape_four2) + 1j * rng.standard_normal(grid.shape_four2)
    for coeffs in (plane_hat, arbitrary):
        kept = coeffs.copy()
        expect = scipy.fft.irfftn(coeffs, s=grid.shape_phys2, axes=(0, 1))
        assert np.array_equal(ifft2(coeffs, grid), expect)
        assert np.array_equal(coeffs, kept)


def test_package_uses_one_transform_implementation():
    """No module imports scipy or calls a multi-axis numpy transform: every
    transform goes through spectral's single rule, and scipy is needed by
    the tests and the benchmark only."""
    multi_axis = {"rfft2", "irfft2", "rfftn", "irfftn", "fft2", "ifft2", "fftn", "ifftn"}
    for path in sorted(pathlib.Path(antkinetics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                modules = []
            scipy = [name for name in modules if name and name.split(".")[0] == "scipy"]
            assert scipy == [], f"{path.name}:{node.lineno} imports {scipy[0]}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                assert not (node.value.attr == "fft" and node.attr in multi_axis), (
                    f"{path.name}:{node.lineno} calls fft.{node.attr}"
                )


@pytest.mark.parametrize("n_parts", [2, 4])
def test_expand_bias_into_buffers_is_bit_exact(grid, n_parts):
    rng = np.random.default_rng(8)
    parts = tuple(rng.standard_normal(grid.shape_phys2) for _ in range(n_parts))
    out = np.empty(grid.shape_phys3)
    assert expand_bias(parts, grid, out=out, work=np.empty(grid.shape_phys3)) is out
    assert np.array_equal(out, expand_bias(parts, grid))


def test_gradient_matches_analytic(grid):
    """Spectral x-derivatives are exact on resolved trigonometric data."""
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    c = np.sin(TWO_PI * 2 * x1) * np.cos(TWO_PI * 3 * x2) + 0.5 * np.cos(TWO_PI * x2)
    parts = turning_bias_parts(fft2(c), grid, 0.0)
    assert len(parts) == 2  # tau = 0 has no curvature parts
    g1, g2 = parts
    d1 = TWO_PI * 2 * np.cos(TWO_PI * 2 * x1) * np.cos(TWO_PI * 3 * x2)
    d2 = (-TWO_PI * 3) * np.sin(TWO_PI * 2 * x1) * np.sin(TWO_PI * 3 * x2) - (
        0.5 * TWO_PI
    ) * np.sin(TWO_PI * x2)
    np.testing.assert_allclose(g1, d1 + 0.0 * c, atol=1e-10)
    np.testing.assert_allclose(g2, d2, atol=1e-10)


def test_hessian_matches_analytic_and_is_symmetric(grid):
    """The curvature parts s = tau (c22 - c11) / 2 and r = tau c12."""
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    c = np.cos(TWO_PI * x1) * np.sin(TWO_PI * 2 * x2)
    tau = 0.3
    _, _, s, r = turning_bias_parts(fft2(c), grid, tau)
    c11 = -(TWO_PI**2) * c
    c22 = -((TWO_PI * 2) ** 2) * c
    np.testing.assert_allclose(s, 0.5 * tau * (c22 - c11), atol=1e-9)
    d12 = -(TWO_PI) * (TWO_PI * 2) * np.sin(TWO_PI * x1) * np.cos(TWO_PI * 2 * x2)
    np.testing.assert_allclose(r, tau * d12, atol=1e-9)


def test_d_theta_analytic(grid):
    theta = grid.theta[None, None, :]
    f = np.broadcast_to(np.cos(3.0 * theta), grid.shape_phys3).copy()
    df = ifft3(grid.in_3d * fft3(f), grid)
    np.testing.assert_allclose(df, -3.0 * np.sin(3.0 * theta) + 0.0 * f, atol=1e-11)


def test_nyquist_mode_has_zero_odd_derivative():
    grid = SpectralGrid(8, 8, 8)
    x1 = grid.x1[:, None]
    c = np.cos(TWO_PI * 4 * x1) * np.ones(grid.shape_phys2)  # pure Nyquist content
    g1, _, s, _ = turning_bias_parts(fft2(c), grid, 1.0)
    np.testing.assert_allclose(g1, 0.0, atol=1e-12)
    # the even-order Hessian keeps the full Nyquist value: c11 = -(2 pi 4)^2 c
    np.testing.assert_allclose(s, 0.5 * (TWO_PI * 4) ** 2 * c, atol=1e-9)


def test_parseval_identities(grid):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape_phys3)
    direct = math.sqrt(float(np.sum(f * f)) * grid.cell_volume)
    assert l2_norm3_hat(fft3(f), grid) == pytest.approx(direct, rel=1e-12)


def test_lp_norm_against_constant(grid):
    values = np.full(grid.shape_phys2, 3.0)
    for p in (1.0, 2.0, 6.0):
        assert lp_norm_phys(values, p, grid.cell_area) == pytest.approx(3.0, rel=1e-13)


def test_dealias_band_and_idempotence(grid):
    rng = np.random.default_rng(2)
    f_hat = fft3(rng.standard_normal(grid.shape_phys3))
    once = f_hat * grid.dealias_mask3
    twice = once * grid.dealias_mask3
    np.testing.assert_array_equal(once, twice)
    # content strictly outside the band is removed
    kept1 = np.abs(grid.m1) <= grid.n_x1 // 3
    kept2 = grid.m2 <= grid.n_x2 // 3
    keptn = np.abs(grid.n_modes) <= grid.n_theta // 3
    outside = ~(kept1[:, None, None] & kept2[None, :, None] & keptn[None, None, :])
    assert np.all(once[outside] == 0.0)
    assert np.any(once[~outside] != 0.0)


@pytest.mark.parametrize("tau", [0.0, 0.7])
def test_turning_bias_analytic(tau):
    """Bias from c = cos(2 pi x1) + sin(2 pi x2) against its closed form."""
    grid = SpectralGrid(16, 16, 16)
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    c = np.cos(TWO_PI * x1) + np.sin(TWO_PI * x2) + 0.0 * (x1 * x2)
    bias = expand_bias(turning_bias_parts(fft2(c), grid, tau), grid)

    th = grid.theta[None, None, :]
    d1 = -TWO_PI * np.sin(TWO_PI * x1)
    d2 = TWO_PI * np.cos(TWO_PI * x2)
    c11 = -(TWO_PI**2) * np.cos(TWO_PI * x1)
    c22 = -(TWO_PI**2) * np.sin(TWO_PI * x2)
    expect = (
        -np.sin(th) * d1[:, :, None]
        + np.cos(th) * d2[:, :, None]
        + tau * 0.5 * (c22 - c11)[:, :, None] * np.sin(2.0 * th)
    )
    np.testing.assert_allclose(bias, expect, atol=1e-9)


def test_turning_bias_dtheta_matches_spectral_derivative():
    """The rotated parts (g2, -g1, -2 r, 2 s) expand to d_theta B."""
    grid = SpectralGrid(16, 16, 16)
    rng = np.random.default_rng(3)
    c_hat = fft2(rng.standard_normal(grid.shape_phys2))
    c_hat *= grid.dealias_mask3[:, :, 0]
    g1, g2, s, r = turning_bias_parts(c_hat, grid, 0.4)
    b = expand_bias((g1, g2, s, r), grid)
    db_direct = expand_bias((g2, -g1, -2.0 * r, 2.0 * s), grid)
    db_spectral = ifft3(grid.in_3d * fft3(b), grid)
    np.testing.assert_allclose(db_direct, db_spectral, atol=1e-9)


def test_field_shape_validation(grid, tmp_path):
    """A field is written only with the coefficient shape its grid implies."""
    with pytest.raises(ValueError, match="shape"):
        write_field(tmp_path / "f.field", np.zeros((3, 3, 3), dtype=complex), grid)
    with pytest.raises(ValueError, match="shape"):
        write_field(tmp_path / "c.field", np.zeros(grid.shape_phys2, dtype=complex), grid)


def test_real_array_is_refused(grid, tmp_path):
    """Only coefficients are stored: a real array is refused, naming its shape and dtype."""
    path = tmp_path / "f.field"
    with pytest.raises(ValueError, match=re.escape(f"shape {grid.shape_phys3} and dtype float64")):
        write_field(path, np.zeros(grid.shape_phys3), grid)
    assert not path.exists()


class TestSerialization:
    def test_roundtrip_3d_fourier_bit_exact(self, grid, tmp_path):
        rng = np.random.default_rng(5)
        values = fft3(rng.standard_normal(grid.shape_phys3))
        path = tmp_path / "f.field"
        write_field(path, values, grid)
        back = read_field(path, grid)
        assert back.dtype == np.complex128
        assert np.array_equal(back, values)

    def test_roundtrip_2d(self, grid, tmp_path):
        rng = np.random.default_rng(6)
        values = fft2(rng.standard_normal(grid.shape_phys2))
        path = tmp_path / "c.field"
        write_field(path, values, grid)
        back = read_field(path, grid)
        assert back.shape == grid.shape_four2
        assert np.array_equal(back, values)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_field_is_a_npy_file_of_c16(self, grid, tmp_path, ndim):
        """A written field is a ``.npy`` file that numpy reads back bit-exact."""
        rng = np.random.default_rng(7)
        shape = grid.shape_phys2 if ndim == 2 else grid.shape_phys3
        values = (fft2 if ndim == 2 else fft3)(rng.standard_normal(shape))
        path = tmp_path / "c.field"
        write_field(path, values, grid)
        stored = np.load(path, allow_pickle=False)
        assert stored.dtype.str == "<c16"
        assert stored.shape == (grid.shape_four2 if ndim == 2 else grid.shape_four3)
        assert stored.tobytes() == values.tobytes()

    def test_antk_layout_is_refused_naming_the_file(self, grid, tmp_path):
        """The earlier header (magic, five uint32, then the payload) is not read."""
        path = tmp_path / "f.field"
        header = b"ANTK" + struct.pack("<5I", 1, grid.n_x1, grid.n_x2, grid.n_theta, 1)
        path.write_bytes(header + np.zeros(grid.shape_four3).astype("<c16").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a coefficient file")):
            read_field(path, grid)

    def test_physical_file_is_refused_naming_the_file(self, grid, tmp_path):
        """A float64 ``.npy`` file is not a coefficient file."""
        path = tmp_path / "f.field"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(grid.shape_four3))
        with pytest.raises(ValueError, match=re.escape(f"{path}: holds <f8")):
            read_field(path, grid)

    def test_huge_stored_shape_is_refused_before_allocating(self, grid, tmp_path):
        path = tmp_path / "f.field"
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<c16", "fortran_order": False, "shape": (10**12,)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: stored shape (1000000000000,)")):
            read_field(path, grid)

    def test_bad_magic_rejected(self, grid, tmp_path):
        path = tmp_path / "f.field"
        write_field(path, np.zeros(grid.shape_four3, dtype=complex), grid)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            read_field(path, grid)

    def test_truncated_payload_rejected(self, grid, tmp_path):
        path = tmp_path / "f.field"
        write_field(path, np.zeros(grid.shape_four3, dtype=complex), grid)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_field(path, grid)

    def test_grid_mismatch_rejected(self, grid, tmp_path):
        path = tmp_path / "f.field"
        write_field(path, np.zeros(grid.shape_four3, dtype=complex), grid)
        with pytest.raises(ValueError, match="does not match"):
            read_field(path, SpectralGrid(8, 8, 8))

    def test_bad_stored_grid_is_refused_naming_the_file(self, grid, tmp_path):
        path = tmp_path / "f.field"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((7, *grid.shape_four3[1:]), dtype=complex))
        with pytest.raises(ValueError, match=re.escape(f"{path}: stored grid (7, 12, 16) "
                                                       "does not match (16, 12, 16)")):
            read_field(path, grid)
