import numpy as np
import pytest

import delaykit as dk
from delaykit.errors import DegenerateSeriesError, ValidationError


def reference_h_mase(predictions, truth, train, h):
    """Direct transcription of the scaled-error formula, written
    independently of the library implementation (plain loops)."""
    numerator = sum(abs(p - c) for p, c in zip(predictions, truth))
    n = len(train)
    k = len(predictions)
    total = 0.0
    for i in range(n - h):
        inner = 0.0
        for iota in range(1, h + 1):
            inner += (train[i] - train[i + iota]) ** 2
        total += (inner / h) ** 0.5
    return numerator / (k / (n - h) * total)


class TestHMase:
    def test_perfect_predictions_score_zero(self):
        train = np.sin(np.arange(50.0))
        score = dk.h_mase(np.arange(5.0), np.arange(5.0), train, 1)
        assert score.value == 0.0

    def test_alternating_train_hand_value(self):
        train = np.tile([0.0, 1.0], 500)
        predictions = np.full(100, 0.5)
        truth = np.tile([0.0, 1.0], 50)
        score = dk.h_mase(predictions, truth, train, 1)
        # numerator 50; denominator (100/999) * 999 * 1 = 100
        assert score.value == pytest.approx(0.5, abs=1e-12)
        assert score.scaling_denominator == pytest.approx(100.0, abs=1e-9)

    def test_in_sample_random_walk_near_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000)
        train, test = x[:1800], x[1800:]
        predictions = np.concatenate([[train[-1]], test[:-1]])
        score = dk.h_mase(predictions, test, train, 1)
        assert 0.85 <= score.value <= 1.15

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(20, 200))
            k = int(rng.integers(1, 30))
            h = int(rng.integers(1, min(6, n - 1)))
            train = rng.normal(size=n)
            predictions = rng.normal(size=k)
            truth = rng.normal(size=k)
            got = dk.h_mase(predictions, truth, train, h).value
            want = reference_h_mase(predictions, truth, train, h)
            assert got == pytest.approx(want, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=300)
        predictions = rng.normal(size=20)
        truth = rng.normal(size=20)
        a = dk.h_mase(predictions, truth, train, 2).value
        b = dk.h_mase(37.0 * predictions, 37.0 * truth, 37.0 * train, 2).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_worsening_a_prediction_never_helps(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=300)
        predictions = rng.normal(size=20)
        truth = rng.normal(size=20)
        base = dk.h_mase(predictions, truth, train, 1).value
        worse = predictions.copy()
        worse[7] += np.sign(worse[7] - truth[7] + 1e-30) * 0.5
        assert dk.h_mase(worse, truth, train, 1).value >= base

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predictions_or_truth_rejected(self, bad):
        # a NaN score would compare neither better nor worse than any other
        train = np.arange(10.0)
        with pytest.raises(ValidationError, match="^predictions must hold only finite"):
            dk.h_mase([bad], [1.0], train, 1)
        with pytest.raises(ValidationError, match="^truth must hold only finite"):
            dk.h_mase([1.0, 2.0], [2.0, bad], train, 1)

    def test_predictions_and_truth_must_be_equal_length_vectors(self):
        train = np.arange(10.0)
        with pytest.raises(ValidationError, match="equal-length"):
            dk.h_mase([1.0, 2.0], [1.0], train, 1)
        with pytest.raises(ValidationError, match="^predictions must be one-dimensional"):
            dk.h_mase(np.ones((2, 2)), np.ones((2, 2)), train, 1)
        with pytest.raises(ValidationError, match="^predictions must hold real numbers"):
            dk.h_mase(["a"], [1.0], train, 1)

    def test_constant_train_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            dk.h_mase(np.ones(3), np.ones(3), np.full(100, 2.0), 1)

    def test_horizon_exceeding_train_rejected(self):
        with pytest.raises(ValidationError):
            dk.h_mase(np.ones(3), np.ones(3), np.arange(5.0), 5)

    def test_cross_horizon_comparison_refused(self):
        train = np.sin(np.arange(100.0))
        a = dk.h_mase(np.ones(3), np.zeros(3), train, 1)
        b = dk.h_mase(np.ones(3), np.zeros(3), train, 2)
        with pytest.raises(ValidationError):
            a < b
        assert (a < dk.h_mase(2 * np.ones(3), np.zeros(3), train, 1))
