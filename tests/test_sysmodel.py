import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.io as sio
import scipy.linalg as la
import scipy.sparse as sp

from ekstab import oracle
from ekstab.errors import (
    DimensionMismatch,
    InfeasibleSpec,
    ParseError,
    ValidationError,
)
from ekstab.sysmodel import (
    DescriptorSystem,
    GridSpec,
    SyntheticSpec,
    Unstable,
    generate_synthetic,
    load_bundle,
    load_system,
    write_system,
)


def _paths(directory):
    return {k: os.path.join(directory, f"{k}.mtx") for k in "MAGBC"}


class TestLoadSystem:
    def test_well_formed_bundle(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        loaded = load_system(_paths(tmp_path))
        assert loaded.dims == sys60.dims

    def test_round_trip_exact(self, sys60u, tmp_path):
        write_system(sys60u, tmp_path)
        loaded = load_bundle(tmp_path / "system.manifest")
        assert (loaded.M != sys60u.M).nnz == 0
        assert (loaded.A != sys60u.A).nnz == 0
        assert (loaded.G != sys60u.G).nnz == 0
        assert np.array_equal(loaded.B, sys60u.B)
        assert np.array_equal(loaded.C, sys60u.C)

    def test_zero_column_g_rejected(self, sys60, tmp_path):
        g = sys60.G.toarray()
        g[:, 3] = 0.0
        bad = DescriptorSystem(
            M=sys60.M, A=sys60.A, G=sp.csc_matrix(g), B=sys60.B, C=sys60.C
        )
        write_system(bad, tmp_path)
        with pytest.raises(ValidationError, match="rank"):
            load_system(_paths(tmp_path))

    def test_indefinite_m_rejected(self, sys60, tmp_path):
        m = sys60.M.toarray()
        w, v = la.eigh(m)
        w[0] = -0.5
        bad = DescriptorSystem(
            M=sp.csc_matrix(v @ np.diag(w) @ v.T),
            A=sys60.A,
            G=sys60.G,
            B=sys60.B,
            C=sys60.C,
        )
        write_system(bad, tmp_path)
        with pytest.raises(ValidationError, match="spd"):
            load_system(_paths(tmp_path))

    def test_asymmetric_m_rejected(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        m = sys60.M.toarray()
        m[0, 1] += 0.3
        sio.mmwrite(os.path.join(tmp_path, "M.mtx"), sp.csc_matrix(m), precision=17)
        with pytest.raises(ValidationError, match="symmetry"):
            load_system(_paths(tmp_path))

    @pytest.mark.parametrize("key", list("MAGBC"))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, sys60, tmp_path, key, value):
        write_system(sys60, tmp_path)
        mat = getattr(sys60, key).copy()
        if sp.issparse(mat):
            mat.data[0] = value
        else:
            mat[0, 0] = value
        sio.mmwrite(os.path.join(tmp_path, f"{key}.mtx"), mat, precision=17)
        with pytest.raises(ValidationError, match=f"finite: {key} "):
            load_system(_paths(tmp_path), validate=False)

    def test_malformed_file(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        with open(tmp_path / "A.mtx", "w") as f:
            f.write("not a matrix market header\n1 2 3\n")
        with pytest.raises(ParseError):
            load_system(_paths(tmp_path))

    def test_missing_manifest_key(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        manifest = tmp_path / "system.manifest"
        lines = [l for l in manifest.read_text().splitlines() if not l.startswith("B")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="B"):
            load_bundle(manifest)

    def test_non_integer_manifest_size(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        manifest = tmp_path / "system.manifest"
        text = manifest.read_text().replace(f"n_v = {sys60.n_v}", "n_v = forty")
        manifest.write_text(text)
        with pytest.raises(ParseError, match="n_v.*'forty'"):
            load_bundle(manifest)


    def test_manifest_size_that_disagrees_with_the_matrices(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        manifest = tmp_path / "system.manifest"
        text = manifest.read_text().replace(f"n_v = {sys60.n_v}", "n_v = 61")
        manifest.write_text(text)
        with pytest.raises(ValidationError, match="manifest n_v = 61 .* loaded 60"):
            load_bundle(manifest)

    def test_manifest_line_without_equals_sign(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        manifest = tmp_path / "system.manifest"
        manifest.write_text(manifest.read_text() + "n_b 2\n")
        with pytest.raises(ParseError, match="malformed manifest line"):
            load_bundle(manifest)

    def test_non_square_m_rejected(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        wide = sp.hstack([sys60.M, sp.csc_matrix((sys60.n_v, 1))])
        sio.mmwrite(os.path.join(tmp_path, "M.mtx"), wide, precision=17)
        with pytest.raises(ValidationError, match="dimension: M \\(60, 61\\)"):
            load_system(_paths(tmp_path))

    def test_manifest_with_an_absolute_matrix_path(self, sys60, tmp_path):
        write_system(sys60, tmp_path / "sys")
        moved = tmp_path / "elsewhere.mtx"
        (tmp_path / "sys" / "M.mtx").rename(moved)
        manifest = tmp_path / "sys" / "system.manifest"
        manifest.write_text(manifest.read_text().replace("M = M.mtx", f"M = {moved}"))
        loaded = load_bundle(manifest)
        assert (loaded.M != sys60.M).nnz == 0

    def test_complex_m_is_a_parse_error(self, sys60, tmp_path):
        write_system(sys60, tmp_path)
        sio.mmwrite(os.path.join(tmp_path, "M.mtx"), sys60.M * (1 + 0j), precision=17)
        with pytest.raises(ParseError, match="complex"):
            load_system(_paths(tmp_path))


def _tiny_system():
    """Four velocities, one pressure, one input and one output; it validates."""
    return DescriptorSystem(
        M=sp.eye(4, format="csc"),
        A=-sp.eye(4, format="csc"),
        G=sp.csc_matrix(np.array([[1.0], [-1.0], [0.0], [0.0]])),
        B=np.ones((4, 1)),
        C=np.ones((1, 4)),
    )


class TestValidate:
    def test_tiny_system_validates(self):
        _tiny_system().validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("A", -sp.eye(3, format="csc"), "dimension: M .* and A"),
            ("G", sp.csc_matrix(np.ones((3, 1))), "dimension: G has 3 rows"),
            ("B", np.ones(4), "dimension: B shape"),
            ("C", np.ones((1, 3)), "dimension: C shape"),
            ("G", sp.csc_matrix(np.eye(4)), "dimension: n_p = 4 must be < n_v = 4"),
            ("M", sp.csc_matrix(np.eye(4) + np.eye(4, k=1)), "symmetry"),
            ("B", np.ones((4, 0)), "dimension: B shape \\(4, 0\\)"),
            ("C", np.ones((0, 4)), "dimension: C shape \\(0, 4\\)"),
        ],
        ids=["A-shape", "G-rows", "B-shape", "C-shape", "n_p", "M-asymmetric",
             "B-no-columns", "C-no-rows"],
    )
    def test_each_structural_defect_rejected(self, field, value, message):
        bad = replace(_tiny_system(), **{field: value})
        with pytest.raises(ValidationError, match=message):
            bad.validate()

    @pytest.mark.parametrize("key", list("MAGBC"))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_refused_when_made(self, sys60, key, value):
        mat = getattr(sys60, key).copy()
        if sp.issparse(mat):
            mat.data[0] = value
        else:
            mat[0, 0] = value
        with pytest.raises(ValidationError, match=f"finite: {key} "):
            replace(sys60, **{key: mat})

    def test_raised_oracle_cap_moves_the_dense_checks(self, monkeypatch):
        s = generate_synthetic(SyntheticSpec(576, 36, seed=5, grid=GridSpec(24, 24)))
        bad = replace(s, M=(s.M - 2.0 * sp.eye(576)).tocsc())
        bad.validate()
        monkeypatch.setenv(oracle.SIZE_CAP_ENV, "1000")
        with pytest.raises(ValidationError, match="spd"):
            bad.validate()


class TestGenerateSynthetic:
    def test_stable_spectrum(self, sys60):
        spectrum = oracle.pencil_finite_spectrum(sys60)
        assert spectrum.size == 52
        assert np.all(spectrum.real < 0.0)

    def test_unstable_exact_count(self, sys60u):
        spectrum = oracle.pencil_finite_spectrum(sys60u)
        above = spectrum[spectrum.real >= 0.5]
        assert above.size == 2
        assert np.all(spectrum[spectrum.real < 0.5].real < 0.0)

    def test_determinism(self):
        spec = SyntheticSpec(60, 8, n_b=2, n_c=2, seed=7)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert (a.A != b.A).nnz == 0
        assert (a.M != b.M).nnz == 0
        assert (a.G != b.G).nnz == 0
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.C, b.C)

    def test_output_always_validates(self):
        for seed in range(5):
            generate_synthetic(SyntheticSpec(45, 6, n_b=1, n_c=3, seed=seed)).validate()

    def test_grid_mode(self):
        spec = SyntheticSpec(
            n_v=64, n_p=6, n_b=2, n_c=2, seed=1, grid=GridSpec(8, 8, viscosity=0.5)
        )
        s = generate_synthetic(spec)
        s.validate()
        spectrum = oracle.pencil_finite_spectrum(s)
        assert np.all(spectrum.real < 0.0)

    def test_grid_unstable(self):
        spec = SyntheticSpec(
            n_v=64,
            n_p=6,
            n_b=2,
            n_c=2,
            seed=1,
            grid=GridSpec(8, 8),
            unstable=Unstable(1, 0.4),
        )
        s = generate_synthetic(spec)
        spectrum = oracle.pencil_finite_spectrum(s)
        assert int(np.sum(spectrum.real >= 0.4)) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(10, 12, seed=0),
            SyntheticSpec(10, 2, seed=0, unstable=Unstable(9, 0.5)),
            SyntheticSpec(10, 2, seed=0, unstable=Unstable(1, -0.5)),
            SyntheticSpec(0, 0, seed=0),
            SyntheticSpec(16, 2, seed=0, grid=GridSpec(5, 5)),
            # Pressure anchors on every second node leave no empty row of G.
            SyntheticSpec(10, 5, seed=0, unstable=Unstable(1, 0.5)),
            SyntheticSpec(64, 6, seed=0, grid=GridSpec(8, 8, viscosity=-1.0)),
            SyntheticSpec(64, 6, seed=0, grid=GridSpec(8, 8, viscosity=np.nan)),
            SyntheticSpec(64, 6, seed=0, grid=GridSpec(8, 8, viscosity=np.inf)),
            SyntheticSpec(10, 2, seed=0, unstable=Unstable(1, np.nan)),
            SyntheticSpec(10, 2, seed=0, unstable=Unstable(1, np.inf)),
            # A 4 x 4 grid has four even-even nodes to anchor pressures on.
            SyntheticSpec(16, 5, seed=0, grid=GridSpec(4, 4)),
            SyntheticSpec(10, 2, seed=0, unstable=Unstable(0, 0.5)),
        ],
    )
    def test_infeasible_specs(self, spec):
        with pytest.raises(InfeasibleSpec):
            generate_synthetic(spec)

    def test_overflowing_viscosity_refused_when_made(self):
        spec = SyntheticSpec(36, 4, grid=GridSpec(6, 6, viscosity=1e308))
        with pytest.raises(ValidationError, match="finite: A "):
            generate_synthetic(spec)

    def test_unit_normalized_maps(self, sys60):
        assert np.allclose(la.norm(sys60.B, axis=0), 1.0)
        assert np.allclose(la.norm(sys60.C, axis=1), 1.0)

    def test_dense_pressure_space(self):
        # n_p close to n_v still yields a valid full-rank gradient.
        s = generate_synthetic(SyntheticSpec(10, 7, seed=2))
        s.validate()
        assert oracle.pencil_finite_spectrum(s).size == 3


def _grid_steps(spec, mat):
    """Grid distance |dx| + |dy| of every stored nonzero of ``mat``."""
    ny = spec.grid.ny if spec.grid is not None else spec.n_v
    coo = mat.tocoo()
    rx, ry = np.divmod(coo.row, ny)
    cx, cy = np.divmod(coo.col, ny)
    return np.abs(rx - cx) + np.abs(ry - cy)


class TestStencilGenerator:
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(60, 8, seed=7, unstable=Unstable(2, 0.5)),
            SyntheticSpec(64, 6, seed=1, grid=GridSpec(8, 8, viscosity=0.5)),
            SyntheticSpec(60, 6, seed=2, grid=GridSpec(6, 10), unstable=Unstable(2, 0.3)),
            SyntheticSpec(60, 6, seed=2, grid=GridSpec(10, 6)),
            SyntheticSpec(40, 0, seed=3, unstable=Unstable(2, 0.5)),
        ],
    )
    def test_couplings_stay_in_stencil(self, spec):
        s = generate_synthetic(spec)
        for mat in (s.A, s.M):
            assert _grid_steps(spec, mat).max() <= 1

    def test_stiffness_saddle_fills_like_a_grid(self):
        s = generate_synthetic(
            SyntheticSpec(3600, 225, n_b=2, n_c=2, seed=3, grid=GridSpec(60, 60))
        )
        lu = s.saddle("stiffness")._lu
        nnz_saddle = s.A.nnz + 2 * s.G.nnz
        assert lu.L.nnz + lu.U.nnz - lu.shape[0] <= 10 * nnz_saddle

    def test_planted_modes_above_the_old_dense_cap(self):
        s = generate_synthetic(
            SyntheticSpec(
                576, 36, n_b=2, n_c=2, seed=5, grid=GridSpec(24, 24),
                unstable=Unstable(3, 0.5),
            )
        )
        spectrum = oracle.pencil_finite_spectrum(s, cap=576)
        above = spectrum[spectrum.real >= 0.5]
        assert above.size == 3
        assert np.allclose(np.sort(above.real), [0.625, 0.75, 0.875], atol=1e-10)
        assert spectrum[spectrum.real < 0.5].real.max() <= -1.0 / 3.0 + 1e-10

    def test_gradient_anchors_cover_the_whole_grid(self):
        spec = SyntheticSpec(1600, 100, seed=3, grid=GridSpec(40, 40))
        rows = generate_synthetic(spec).G.tocoo().row
        assert np.max(rows % spec.grid.ny) >= 30


class TestSaddleKinds:
    @pytest.mark.parametrize(
        "kind, shift",
        [("mass", 5.0), ("stiffness", 5.0), ("identity", 5.0), ("shifted", None),
         ("euler", None), ("bogus", None)],
    )
    def test_bad_kind_or_shift_rejected_before_factoring(
        self, sys60, kinds, kind, shift
    ):
        with pytest.raises(DimensionMismatch):
            sys60.saddle(kind, shift)
        assert kinds == []
