import numpy as np
import pytest

from phonosim.errors import DataError, ParseError
from phonosim.formats import csv_rows
from phonosim.pca import (Projection2D, pca_project, read_coords_csv,
                          write_coords_csv)


def pairwise_distances(points):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    return np.array([[np.linalg.norm(pts[i] - pts[j]) for j in range(n)]
                     for i in range(n)])


def explained_top2_oracle(rows):
    """Fraction of variance on the top 2 components via the covariance
    eigendecomposition, independent of the SVD route."""
    X = np.asarray(rows, dtype=float)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / len(X)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    return eigvals[0] / total, eigvals[1] / total


class TestProjection:
    def test_2d_data_is_isometric(self):
        rows = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        proj = pca_project(rows, ["a", "b", "c"])
        assert np.allclose(pairwise_distances(proj.coords),
                           pairwise_distances(rows), atol=1e-9)

    def test_identical_rows_degenerate(self):
        proj = pca_project([[1.0, 2.0, 3.0]] * 4, list("abcd"))
        assert not proj.coords.any()
        assert proj.explained_variance == (0.0, 0.0)

    def test_explained_variance_matches_eig_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rows = rng.normal(size=(8, 5))
            proj = pca_project(rows, [f"r{i}" for i in range(8)])
            expected = explained_top2_oracle(rows)
            assert abs(proj.explained_variance[0] - expected[0]) <= 1e-9
            assert abs(proj.explained_variance[1] - expected[1]) <= 1e-9

    def test_explained_variance_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = rng.normal(size=(6, 4))
            proj = pca_project(rows, [f"r{i}" for i in range(6)])
            ev1, ev2 = proj.explained_variance
            assert 0.0 <= ev2 <= ev1 <= 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(6, 4))
        shifted = rows + rng.normal(size=(1, 4))
        a = pca_project(rows, [f"r{i}" for i in range(6)])
        b = pca_project(shifted, [f"r{i}" for i in range(6)])
        assert np.allclose(a.coords, b.coords, atol=1e-9)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(7, 5))
        a = pca_project(rows, [f"r{i}" for i in range(7)])
        b = pca_project(rows.copy(), [f"r{i}" for i in range(7)])
        assert np.array_equal(a.coords, b.coords)
        assert a.explained_variance == b.explained_variance

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows = rng.normal(size=(6, 4))
            proj = pca_project(rows, [f"r{i}" for i in range(6)])
            for c in range(2):
                col = proj.coords[:, c]
                assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_variance_dominance_over_random_projections(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            rows = rng.normal(size=(6, 4))
            centered = rows - rows.mean(axis=0)
            proj = pca_project(rows, [f"r{i}" for i in range(6)])
            pca_mass = float((proj.coords ** 2).sum())
            for _ in range(200):
                q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
                mass = float(((centered @ q) ** 2).sum())
                assert pca_mass >= mass - 1e-9


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            pca_project([[0.0, np.nan], [1.0, 2.0]], ["a", "b"])

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            pca_project([[0.0, 1.0]], ["a"])

    def test_too_few_columns(self):
        with pytest.raises(DataError):
            pca_project([[0.0], [1.0]], ["a", "b"])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(5, 4))
        proj = pca_project(rows, [f"r{i}" for i in range(5)])
        path = tmp_path / "coords.csv"
        write_coords_csv(proj, path)
        codes, coords = read_coords_csv(path)
        assert codes == proj.codes
        assert np.allclose(coords, proj.coords, atol=1e-10)

    def test_family_column(self, tmp_path):
        proj = Projection2D(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                            (0.7, 0.3))
        path = tmp_path / "coords.csv"
        write_coords_csv(proj, path, families={"a": "F1"})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,x,y,ev1,ev2,family"
        assert lines[1].endswith(",F1")
        assert lines[2].endswith(",")

    @pytest.mark.parametrize("family", ["Indo,European", 'say "a"', "cr\rlf\n", "plain"])
    def test_family_cell_round_trips(self, tmp_path, family):
        proj = Projection2D(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                            (0.7, 0.3))
        path = tmp_path / "coords.csv"
        write_coords_csv(proj, path, families={"a": family, "b": "F2"})
        rows = [cells for _, cells in csv_rows(path)]
        assert [len(cells) for cells in rows] == [6, 6, 6]
        assert [cells[5] for cells in rows] == ["family", family, "F2"]
        codes, coords = read_coords_csv(path)
        assert codes == ("a", "b")
        assert np.array_equal(coords, proj.coords)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, value):
        path = tmp_path / "coords.csv"
        path.write_text(f"id,x,y\na,0,1\n\nb,0.5,{value}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"coords\.csv:4: non-finite coordinate"):
            read_coords_csv(path)
