"""Tests for the three synthetic workload generators."""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.datasets.digits import load_digits, render_digit
from repro.datasets.shapes import SHAPE_CLASSES, load_shapes, render_shape
from repro.datasets.spoken import load_spoken, render_utterance


def nearest_mean_accuracy(train, test):
    """Accuracy of a nearest-class-mean classifier (cosine)."""
    x_train, y_train = train.normalized(), train.labels
    x_test, y_test = test.normalized(), test.labels
    means = np.stack([x_train[y_train == c].mean(axis=0) for c in range(10)])
    scores = x_test @ means.T / np.linalg.norm(means, axis=1)
    return float(np.mean(np.argmax(scores, axis=1) == y_test))


class TestDigits:
    def test_shapes_and_dtypes(self):
        train, test = load_digits(n_train=60, n_test=30)
        assert train.images.shape == (60, 784)
        assert test.images.shape == (30, 784)
        assert train.images.dtype == np.uint8
        assert train.n_classes == 10

    def test_deterministic_for_seed(self):
        a, _ = load_digits(n_train=30, n_test=10, seed=5)
        b, _ = load_digits(n_train=30, n_test=10, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a, _ = load_digits(n_train=30, n_test=10, seed=1)
        b, _ = load_digits(n_train=30, n_test=10, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_train_test_independent_streams(self):
        # Enlarging the training set must not change the test set.
        _, test_a = load_digits(n_train=30, n_test=20, seed=3)
        _, test_b = load_digits(n_train=60, n_test=20, seed=3)
        assert np.array_equal(test_a.images, test_b.images)

    def test_classes_balanced(self):
        train, _ = load_digits(n_train=100, n_test=10)
        assert train.class_counts().min() >= 9

    def test_canonical_glyph_without_jitter_is_deterministic(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(1)
        a = render_digit(3, rng_a, jitter=0.0)
        b = render_digit(3, rng_b, jitter=0.0)
        assert np.array_equal(a, b)

    def test_invalid_digit_rejected(self):
        with pytest.raises(DatasetError):
            render_digit(10, np.random.default_rng(0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(DatasetError):
            load_digits(n_train=5, n_test=30)

    def test_classes_are_separable(self):
        # The substitute must be learnable: a trivial nearest-mean
        # classifier should already beat chance by a wide margin.
        train, test = load_digits(n_train=300, n_test=100)
        assert nearest_mean_accuracy(train, test) > 0.6

    def test_images_have_ink_and_background(self):
        train, _ = load_digits(n_train=30, n_test=10)
        assert train.images.max() > 150   # strokes present
        mean = train.images.mean()
        assert 10 < mean < 120            # mostly background


class TestShapes:
    def test_geometry(self):
        train, test = load_shapes(n_train=40, n_test=20)
        assert train.images.shape == (40, 784)
        assert train.n_classes == 10
        assert len(SHAPE_CLASSES) == 10

    def test_deterministic_for_seed(self):
        a, _ = load_shapes(n_train=20, n_test=10, seed=4)
        b, _ = load_shapes(n_train=20, n_test=10, seed=4)
        assert np.array_equal(a.images, b.images)

    def test_silhouettes_are_filled(self):
        # A silhouette should have a substantial filled interior.
        rng = np.random.default_rng(0)
        image = render_shape(1, rng, jitter=0.0)  # square
        assert (image > 200).mean() > 0.15

    def test_invalid_class_rejected(self):
        with pytest.raises(DatasetError):
            render_shape(12, np.random.default_rng(0))

    def test_classes_are_separable(self):
        train, test = load_shapes(n_train=300, n_test=100)
        assert nearest_mean_accuracy(train, test) > 0.45


class TestSpoken:
    def test_geometry_is_13x13(self):
        train, test = load_spoken(n_train=40, n_test=20)
        assert train.images.shape == (40, 169)
        assert train.side == 13

    def test_deterministic_for_seed(self):
        a, _ = load_spoken(n_train=20, n_test=10, seed=4)
        b, _ = load_spoken(n_train=20, n_test=10, seed=4)
        assert np.array_equal(a.images, b.images)

    def test_invalid_class_rejected(self):
        with pytest.raises(DatasetError):
            render_utterance(-1, np.random.default_rng(0))

    def test_harder_than_vision_workloads(self):
        # The paper reports much lower accuracies on SAD; the generator
        # mirrors that with heavier intra-class variability, so
        # nearest-mean should do clearly worse than on digits.
        d_train, d_test = load_digits(n_train=300, n_test=100)
        s_train, s_test = load_spoken(n_train=300, n_test=100)
        assert nearest_mean_accuracy(s_train, s_test) < nearest_mean_accuracy(
            d_train, d_test
        )

    def test_classes_still_learnable(self):
        train, test = load_spoken(n_train=300, n_test=100)
        assert nearest_mean_accuracy(train, test) > 0.3


class TestPinnedBytes:
    """SHA-256 of (train images, train labels, test images, test labels),
    recorded before the rasterizer was rewritten: a change to any
    rendering expression that moves one rounding moves a digest."""

    PINNED = {
        ("digits", 80, 40, None): "7e15a796ad6e70d31188811b7b8ee22c3ccc1c37f1aedfebfcc7c21fc00adf84",
        ("digits", 80, 40, 5): "3dc600e84cd9283906474f267bef0addffa33ea0fa12f7f6de1ad24e3be3d326",
        ("digits", 300, 75, None): "ac2084c1ca25e30744e9a3d11f79fb173b6786a031c0913b093602d3300e0904",
        ("digits", 300, 75, 5): "99d92370a351fd11c6b7c219d67e9fcafb7377ddbe863c893a71b944a6e6cf26",
        ("shapes", 80, 40, None): "222c1760f8c6959736177b1371823fe2ab3beb1b93bfeb9b2d2a525bf229349a",
        ("shapes", 80, 40, 5): "6552bd43da6c1cc2ea26d6db9304e9f0ba0b48816b3189b1f027b1d5d6d819c8",
        ("shapes", 300, 75, None): "5c5b8d18961f1ef5bde739aa9b493c4eeefd11ff64a367e853f62788b0ca90c8",
        ("shapes", 300, 75, 5): "ca246637ccf9f11fb01b49eb6112e233195223d07f808a583a675642b5cbeb66",
        ("spoken", 80, 40, None): "551730178e28f0c235d63bbc66effeb7a8e91aad24566036a53c07493c173c3b",
        ("spoken", 80, 40, 5): "60ff6d8fb230c24268b8adde6aaf595710ce05de22f96f18187ae4c2ace5a2c3",
        ("spoken", 300, 75, None): "76652d59159f9e4ef9526553d99320bca6bcdb8dcb23e9aef377b0d2b80f53f2",
        ("spoken", 300, 75, 5): "ba3683b45549e012803a21e9ecb94536c1cac16ea028302ed7c90af9fcd6ccfa",
    }

    LOADERS = {"digits": load_digits, "shapes": load_shapes, "spoken": load_spoken}

    @pytest.mark.parametrize(
        "name,n_train,n_test,seed", sorted(PINNED, key=str), ids=str
    )
    def test_bytes_pinned(self, name, n_train, n_test, seed):
        import hashlib

        digest = hashlib.sha256()
        for dataset in self.LOADERS[name](n_train=n_train, n_test=n_test, seed=seed):
            digest.update(np.ascontiguousarray(dataset.images).tobytes())
            digest.update(np.ascontiguousarray(dataset.labels).tobytes())
        assert digest.hexdigest() == self.PINNED[(name, n_train, n_test, seed)]
