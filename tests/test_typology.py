import numpy as np
import pytest

from phonosim.errors import DataError, ParseError
from phonosim.pca import pca_project
from phonosim.typology import FeatureMatrix, impute, load_feature_matrix


def write_features(tmp_path, text):
    p = tmp_path / "features.csv"
    p.write_text(text, encoding="utf-8")
    return p


class TestLoading:
    def test_toy_matrix(self, tmp_path):
        p = write_features(
            tmp_path,
            "lang,f1,f2,f3,f4,f5,f6\n"
            "l1,0,1,0,1,0,1\n"
            "l2,1,1,?,1,0,0\n"
            "l3,0,0,0,?,1,1\n"
            "l4,1,0,1,1,?,0\n")
        fm = load_feature_matrix(p)
        assert fm.language_ids == ("l1", "l2", "l3", "l4")
        assert len(fm.feature_ids) == 6
        assert np.isnan(fm.values[1, 2])

    def test_non_ternary_value_names_row_and_column(self, tmp_path):
        p = write_features(tmp_path, "lang,f1,f2\nl1,0,2\n")
        with pytest.raises(ParseError) as exc:
            load_feature_matrix(p)
        assert "l1" in str(exc.value) and "f2" in str(exc.value)

    def test_all_missing_column_dropped_with_warning(self, tmp_path):
        p = write_features(tmp_path,
                           "lang,f1,f2\n"
                           "l1,1,?\n"
                           "l2,0,?\n")
        with pytest.warns(UserWarning, match="f2"):
            fm = load_feature_matrix(p)
        assert fm.feature_ids == ("f1",)

    def test_all_missing_row_dropped_with_warning(self, tmp_path):
        p = write_features(tmp_path,
                           "lang,f1,f2\n"
                           "l1,?,?\n"
                           "l2,0,1\n")
        with pytest.warns(UserWarning, match="l1"):
            fm = load_feature_matrix(p)
        assert fm.language_ids == ("l2",)

    def test_empty_cell_counts_as_missing(self, tmp_path):
        p = write_features(tmp_path, "lang,f1,f2\nl1,,1\nl2,0,0\n")
        fm = load_feature_matrix(p)
        assert np.isnan(fm.values[0, 0])

    def test_duplicate_language_rejected(self, tmp_path):
        p = write_features(tmp_path, "lang,f1\nl1,0\nl1,1\n")
        with pytest.raises(ParseError):
            load_feature_matrix(p)

    @pytest.mark.parametrize("cell", ['"a,a"', '"a""b"', "a b", '"a\nb"', "a\x01b", ""])
    def test_id_that_cannot_be_a_code_names_the_line(self, tmp_path, cell):
        p = write_features(tmp_path, f"lang,f1\nl1,0\n{cell},1\n")
        with pytest.raises(ParseError, match=r"features\.csv:3: "):
            load_feature_matrix(p)

    def test_everything_missing_rejected(self, tmp_path):
        p = write_features(tmp_path, "lang,f1\nl1,?\n")
        with pytest.warns(UserWarning), pytest.raises(ParseError):
            load_feature_matrix(p)


class TestImpute:
    def test_none_passthrough_on_complete(self):
        fm = FeatureMatrix(("a", "b"), ("f1", "f2"),
                           np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(impute(fm, "none"), fm.values)

    def test_none_reports_missing_count(self):
        fm = FeatureMatrix(("a", "b"), ("f1", "f2"),
                           np.array([[0.0, np.nan], [np.nan, 0.0]]))
        with pytest.raises(DataError) as exc:
            impute(fm, "none")
        assert "2" in str(exc.value)

    def test_column_mode_majority(self):
        fm = FeatureMatrix(("a", "b", "c", "d"), ("f1",),
                           np.array([[1.0], [1.0], [np.nan], [0.0]]))
        assert impute(fm, "column_mode")[2, 0] == 1.0

    def test_column_mode_tie_goes_to_zero(self):
        fm = FeatureMatrix(("a", "b", "c", "d"), ("f1",),
                           np.array([[1.0], [0.0], [np.nan], [np.nan]]))
        filled = impute(fm, "column_mode")
        assert filled[2, 0] == 0.0 and filled[3, 0] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        values = rng.choice([0.0, 1.0, np.nan], size=(6, 5), p=[0.4, 0.4, 0.2])
        values[:, 0] = 1.0  # keep at least one complete column
        fm = FeatureMatrix(tuple(f"l{i}" for i in range(6)),
                           tuple(f"f{j}" for j in range(5)), values)
        once = impute(fm, "column_mode")
        twice = impute(FeatureMatrix(fm.language_ids, fm.feature_ids, once),
                       "column_mode")
        assert np.array_equal(once, twice)

    def test_unknown_method(self):
        fm = FeatureMatrix(("a",), ("f1",), np.array([[1.0]]))
        with pytest.raises(DataError):
            impute(fm, "rf")


class TestProjection:
    def test_identical_languages_identical_coords(self):
        values = np.array([[1.0, 0.0, 1.0],
                           [1.0, 0.0, 1.0],
                           [0.0, 1.0, 0.0]])
        proj = pca_project(values, ("a", "b", "c"))
        assert np.allclose(proj.coords[0], proj.coords[1], atol=1e-12)

    def test_two_distinct_rows_put_all_variance_on_pc1(self):
        values = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        proj = pca_project(values, ("a", "b"))
        assert proj.explained_variance[0] >= 1.0 - 1e-12
        assert abs(proj.explained_variance[1]) <= 1e-12

    def test_split_feature_separates_groups(self):
        # f1 splits languages into two clusters; noise features are tiny
        values = np.array([
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
        ])
        proj = pca_project(values, ("a", "b", "c", "d"))
        x = proj.coords[:, 0]
        group1 = {x[0], x[1]}
        group2 = {x[2], x[3]}
        assert max(group1) < min(group2) or min(group1) > max(group2)

    def test_column_permutation_preserves_distances(self):
        rng = np.random.default_rng(13)
        values = rng.choice([0.0, 1.0], size=(6, 8))
        ids = tuple(f"l{i}" for i in range(6))
        perm = rng.permutation(8)
        a = pca_project(values, ids).coords
        b = pca_project(values[:, perm], ids).coords

        def dists(coords):
            return np.array([[np.linalg.norm(coords[i] - coords[j])
                              for j in range(6)] for i in range(6)])

        assert np.allclose(dists(a), dists(b), atol=1e-9)

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(DataError):
            pca_project(np.array([[1.0, np.nan], [0.0, 1.0]]), ("a", "b"))
