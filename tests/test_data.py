import re

import numpy as np
import pytest

from libags.data import (
    CandidatePool,
    FeatureMatrix,
    LabeledDataset,
    MOONS_GAP_CENTER,
    load_candidate_csv,
    load_labeled_csv,
    make_two_moons,
    write_candidate_csv,
    write_csv,
    write_labeled_csv,
)
from libags.errors import ParseError, SchemaError, ValidationError


class TestFeatureMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.empty((0, 2)))

    def test_shape_accessors(self):
        fm = FeatureMatrix(np.ones((3, 2)))
        assert (fm.n_rows, fm.n_cols) == (3, 2)

    def test_immutable(self):
        fm = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            fm.values[0, 0] = 5.0

    @pytest.mark.parametrize("arr", [np.ones(3), np.empty((0, 2)), np.empty((2, 0)), np.array([[1.0, np.inf]])])
    def test_adopt_rejects_what_the_constructor_rejects(self, arr):
        with pytest.raises(ValidationError) as copied:
            FeatureMatrix(arr.copy())
        with pytest.raises(ValidationError, match=f"^{re.escape(str(copied.value))}$"):
            FeatureMatrix._adopt(arr)

    def test_adopt_freezes_the_array_itself(self):
        arr = np.arange(6.0).reshape(3, 2)
        fm = FeatureMatrix._adopt(arr)
        assert fm.values is arr and not arr.flags.writeable

    def test_constructor_copies_and_leaves_the_caller_array_writeable(self):
        arr = np.arange(6.0).reshape(3, 2)
        fm = FeatureMatrix(arr)
        assert not np.shares_memory(fm.values, arr)
        assert arr.flags.writeable and not fm.values.flags.writeable


class TestLabeledDataset:
    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            LabeledDataset(FeatureMatrix(np.ones((2, 2))), np.array([0, 2]), 2)

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            LabeledDataset(FeatureMatrix(np.ones((2, 2))), np.array([0, 0]), 1)


class TestCandidatePool:
    def test_default_source_ids_are_row_indices(self):
        pool = CandidatePool(FeatureMatrix(np.ones((3, 2))), np.array([0, 1, 0]))
        assert pool.source_ids == ("0", "1", "2")

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            CandidatePool(FeatureMatrix(np.ones((3, 2))), np.array([0, 1]))


class TestLabeledCsv:
    def test_three_row_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n0.5,1.5,0\n2.0,3.0,1\n4.0,5.0,0\n")
        ds = load_labeled_csv(path, 2)
        assert (ds.n_rows, ds.features.n_cols) == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]

    def test_label_above_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,2\n")
        with pytest.raises(ValidationError):
            load_labeled_csv(path, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_labeled_csv(path, 2)

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,0\noops,1\n")
        with pytest.raises(ParseError, match="row 3"):
            load_labeled_csv(path, 2)

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\ninf,0\n")
        with pytest.raises(ValidationError):
            load_labeled_csv(path, 2)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(SchemaError):
            load_labeled_csv(path, 2)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(FeatureMatrix(rng.normal(size=(20, 4)) * 1e3), rng.integers(0, 3, 20), 3)
        path = tmp_path / "rt.csv"
        write_labeled_csv(path, ds)
        back = load_labeled_csv(path, 3)
        np.testing.assert_allclose(back.features.values, ds.features.values, atol=1e-12, rtol=0)
        assert back.labels.tolist() == ds.labels.tolist()

    def test_loaders_accept_crlf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b,label\r\n1.5,2,0\r\n3,4.25,1\r\n")
        ds = load_labeled_csv(path, 2)
        assert ds.features.values.tolist() == [[1.5, 2.0], [3.0, 4.25]]
        assert ds.labels.tolist() == [0, 1]


class TestCandidateCsv:
    def test_five_row_parse(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = "\n".join(f"{i}.5,{i}.25,{i % 2}" for i in range(5))
        path.write_text("a,b,proposed_label\n" + rows + "\n")
        pool = load_candidate_csv(path, 2)
        assert pool.n_rows == 5
        assert pool.source_ids == tuple(str(i) for i in range(5))

    def test_missing_proposed_label(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(SchemaError):
            load_candidate_csv(path, 2)

    def test_nan_feature(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,proposed_label\nnan,0\n")
        with pytest.raises(ValidationError):
            load_candidate_csv(path, 2)

    def test_source_id_round_trip(self, tmp_path):
        pool = CandidatePool(FeatureMatrix(np.eye(3)), np.array([0, 1, 1]), ("x", "y", "z"), 2)
        path = tmp_path / "c.csv"
        write_candidate_csv(path, pool)
        back = load_candidate_csv(path, 2)
        assert back.source_ids == ("x", "y", "z")
        np.testing.assert_allclose(back.features.values, pool.features.values, atol=1e-12, rtol=0)

    def test_non_ascii_source_id_round_trip(self, tmp_path):
        # The file is UTF-8 whatever the locale's encoding.
        pool = CandidatePool(FeatureMatrix(np.eye(2)), np.array([0, 1]), ("café", "日本"), 2)
        path = tmp_path / "c.csv"
        write_candidate_csv(path, pool)
        assert load_candidate_csv(path, 2).source_ids == ("café", "日本")
        assert "café" in path.read_text(encoding="utf-8")


class TestWriteCsv:
    def test_floats_keep_17_digits_and_lines_end_in_lf(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, ["a", "b", "c", "d", "e"], [[0.1, np.float64(1 / 3), np.float32(0.1), 7, "x,y"], [1e300, -0.0, 2.0, np.int64(3), "é"]])
        assert path.read_bytes() == (
            'a,b,c,d,e\n0.10000000000000001,0.33333333333333331,0.10000000149011612,7,"x,y"\n1.0000000000000001e+300,-0,2,3,é\n'
        ).encode("utf-8")


class TestMakeTwoMoons:
    def test_deterministic(self):
        a = make_two_moons(20, 0.2, 0.3, 0)
        b = make_two_moons(20, 0.2, 0.3, 0)
        for left, right in zip(a, b):
            assert np.array_equal(left.features.values, right.features.values)

    def test_zero_gap_removes_nothing(self):
        train, _, _ = make_two_moons(25, 0.2, 0.0, 1)
        assert train.n_rows == 50

    def test_gap_carved_and_pool_covers_it(self):
        train, _, pool = make_two_moons(300, 0.2, 0.3, 5)
        gap = np.abs(train.features.values[:, 0] - MOONS_GAP_CENTER) < 0.3
        assert int(gap.sum()) == 0
        pool_gap = np.abs(pool.features.values[:, 0] - MOONS_GAP_CENTER) < 0.3
        assert int(pool_gap.sum()) >= 1

    def test_test_set_balanced_and_gap_free(self):
        _, test, _ = make_two_moons(40, 0.25, 0.5, 2)
        assert test.n_rows == 80
        assert int((test.labels == 0).sum()) == 40

    def test_no_train_point_in_band_property(self):
        for seed in range(4):
            train, _, _ = make_two_moons(50, 0.3, 0.4, seed)
            assert np.all(np.abs(train.features.values[:, 0] - MOONS_GAP_CENTER) >= 0.4)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            make_two_moons(5, 0.2, 0.3, 0)
        with pytest.raises(ValidationError):
            make_two_moons(20, -0.1, 0.3, 0)
        with pytest.raises(ValidationError):
            make_two_moons(20, 0.2, 1.0, 0)

    def test_strata_ids(self):
        _, _, pool = make_two_moons(20, 0.2, 0.3, 0)
        prefixes = {sid.split("-")[0] for sid in pool.source_ids}
        assert prefixes == {"bnd", "sup", "off"}
