import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scampsim.dataset import (DatasetError, JitterParams, export_dataset,
                              generate, images_labels, load_dataset,
                              render_gesture)


def dataset_bytes(split):
    xs_train, ys_train = images_labels(split.train)
    if split.test:
        xs_test, ys_test = images_labels(split.test)
        return (xs_train.tobytes() + ys_train.tobytes()
                + xs_test.tobytes() + ys_test.tobytes())
    return xs_train.tobytes() + ys_train.tobytes()


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate(5, 10, 4)
        b = generate(5, 10, 4)
        assert dataset_bytes(a) == dataset_bytes(b)

    def test_different_seeds_differ(self):
        assert dataset_bytes(generate(1, 10)) != dataset_bytes(generate(2, 10))

    def test_zero_jitter_reproduces_prototypes(self):
        split = generate(0, 3, params=JitterParams(0.0, 0.0, 0.0, 0.0))
        for s in split.train:
            assert np.array_equal(s.image, render_gesture(s.label))

    def test_balanced_classes(self):
        split = generate(0, 7, 3)
        assert np.bincount(images_labels(split.train)[1]).tolist() == [7, 7, 7]
        assert np.bincount(images_labels(split.test)[1]).tolist() == [3, 3, 3]

    def test_class_mean_pixel_counts_ordered(self):
        # rock < scissors < paper by construction
        split = generate(0, 50)
        xs, ys = images_labels(split.train)
        means = [xs[ys == label].sum(axis=(1, 2)).mean() for label in range(3)]
        rock, paper, scissors = means
        assert rock < scissors < paper

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_samples_satisfy_invariants(self, seed):
        split = generate(seed, 2, 1)
        for s in split.train + split.test:
            assert s.image.shape == (64, 64)
            assert set(np.unique(s.image)) <= {0, 1}
            assert 0 <= s.label < 3

    def test_rejects_empty_request(self):
        with pytest.raises(DatasetError):
            generate(0, 0)


class TestExportLoad:
    def test_round_trip(self, tmp_path):
        split = generate(3, 5, 2)
        export_dataset(split, tmp_path)
        back = load_dataset(tmp_path)
        assert dataset_bytes(back) == dataset_bytes(split)
        assert back.seed == 3

    def test_export_is_byte_deterministic(self, tmp_path):
        for d in ("a", "b"):
            export_dataset(generate(3, 5, 2), tmp_path / d)
        for name in sorted(os.listdir(tmp_path / "a")):
            fa = (tmp_path / "a" / name).read_bytes()
            fb = (tmp_path / "b" / name).read_bytes()
            assert fa == fb, name
