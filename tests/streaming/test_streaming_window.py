"""Window algebra: exact merge/subtract, slide bit-identity, decay, privacy audit.

The sliding window's whole value proposition is that count algebra replaces
re-scans *without changing a single number*.  The properties here pin that down:

* ``merged`` followed by ``subtracted`` restores a ``ShardAggregate`` bit for bit
  (histogram counts are integer-valued floats, so float addition is exact);
* a :class:`~repro.streaming.WindowedAggregator` that slid past old epochs holds
  byte-identical counts — and therefore produces byte-identical estimates — to one
  that only ever saw the surviving epochs;
* any interleaving of epoch commits with reordered shard merges inside each epoch
  yields bit-identical windowed estimates (addition is commutative on exact
  integers);
* exponential decay matches the explicit weighted sum over the retained epochs;
* the per-report mechanism driving a windowed deployment still audits within
  ``e^eps`` (windowing is post-processing; ``confidence_z=4`` per the established
  multiplicity convention).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies
from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec
from repro.core.estimator import ShardAggregate
from repro.metrics.privacy_audit import audit_mechanism
from repro.streaming import WindowedAggregator

SLOW_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def mechanism() -> DiscreteDAM:
    return DiscreteDAM(GridSpec.unit(5), 2.0, b_hat=1)


def _random_aggregate(rng: np.random.Generator, mechanism) -> ShardAggregate:
    """A synthetic epoch: integer histograms of a random user population."""
    n_users = int(rng.integers(0, 500))
    noisy = rng.multinomial(
        n_users,
        np.full(mechanism.output_domain_size(), 1.0 / mechanism.output_domain_size()),
    )
    true = rng.multinomial(
        n_users,
        np.full(mechanism.grid.n_cells, 1.0 / mechanism.grid.n_cells),
    )
    return ShardAggregate(
        noisy_counts=noisy.astype(float),
        true_cell_counts=true.astype(float),
        n_users=n_users,
    )


class TestMergeSubtractInverse:
    @given(strategies.rngs())
    @SLOW_SETTINGS
    def test_merge_then_subtract_is_bit_identical(self, mechanism, rng):
        """ShardAggregate: merged(s).subtracted(s) restores the exact state."""
        before = mechanism.streaming_aggregator(seed=0).state()
        for _ in range(int(rng.integers(0, 4))):
            before = before.merged(_random_aggregate(rng, mechanism))
        transient = _random_aggregate(rng, mechanism)
        after = before.merged(transient).subtracted(transient)
        assert np.array_equal(before.noisy_counts, after.noisy_counts)
        assert np.array_equal(before.true_cell_counts, after.true_cell_counts)
        assert before.n_users == after.n_users
        assert type(before.n_users) is type(after.n_users) is int

    def test_subtract_rejects_mismatched_shapes(self, mechanism):
        other = DiscreteDAM(GridSpec.unit(3), 2.0, b_hat=1)
        empty = mechanism.streaming_aggregator(seed=0).state()
        with pytest.raises(ValueError, match="cannot subtract"):
            empty.subtracted(other.streaming_aggregator(seed=0).state())

    def test_subtract_rejects_wrong_type(self, mechanism):
        with pytest.raises(TypeError, match="subtract expects"):
            mechanism.streaming_aggregator(seed=0).state().subtracted(np.zeros(3))


class TestWindowSlideBitIdentity:
    @given(
        strategies.rngs(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
    )
    @SLOW_SETTINGS
    def test_slid_window_equals_fresh_window_over_survivors(
        self, mechanism, rng, window_epochs, n_epochs
    ):
        """Sliding past expired epochs leaves exactly the survivors' counts."""
        epochs = [_random_aggregate(rng, mechanism) for _ in range(n_epochs)]
        slid = WindowedAggregator(mechanism, window_epochs)
        for epoch in epochs:
            slid.commit_aggregate(epoch)
        fresh = WindowedAggregator(mechanism, window_epochs)
        for epoch in epochs[-window_epochs:]:
            fresh.commit_aggregate(epoch)
        noisy_a, true_a, users_a = slid.window_counts()
        noisy_b, true_b, users_b = fresh.window_counts()
        assert np.array_equal(noisy_a, noisy_b)
        assert np.array_equal(true_a, true_b)
        assert users_a == users_b
        # Identical counts imply bit-identical estimates: the estimator is a
        # deterministic function of the histogram.
        if users_a > 0:
            assert np.array_equal(
                slid.finalize().estimate.probabilities,
                fresh.finalize().estimate.probabilities,
            )

    @given(
        strategies.rngs(),
        st.integers(min_value=2, max_value=4),
        st.permutations(list(range(5))),
    )
    @SLOW_SETTINGS
    def test_interleaved_merges_and_reordered_shards_are_bit_identical(
        self, mechanism, rng, window_epochs, shard_order
    ):
        """Shard order inside an epoch and transient merge/subtract interleavings
        cannot change a windowed estimate by even one bit."""
        n_epochs = int(rng.integers(1, window_epochs + 2))
        epoch_shards = [
            [_random_aggregate(rng, mechanism) for _ in range(5)]
            for _ in range(n_epochs)
        ]

        def epoch_aggregate(shards) -> ShardAggregate:
            total = mechanism.streaming_aggregator().state()
            for shard in shards:
                total = total.merged(shard)
            return total

        ordered = WindowedAggregator(mechanism, window_epochs)
        for shards in epoch_shards:
            ordered.commit_aggregate(epoch_aggregate(shards))

        shuffled = WindowedAggregator(mechanism, window_epochs)
        for index, shards in enumerate(epoch_shards):
            # Reorder the shard merges and, between epochs, interleave a transient
            # merge+subtract of an unrelated aggregate on the epoch accumulator.
            total = mechanism.streaming_aggregator().state()
            transient = _random_aggregate(rng, mechanism)
            for position, shard_index in enumerate(shard_order):
                total = total.merged(shards[shard_index])
                if position == index % 5:
                    total = total.merged(transient).subtracted(transient)
            shuffled.commit_aggregate(total)

        noisy_a, true_a, users_a = ordered.window_counts()
        noisy_b, true_b, users_b = shuffled.window_counts()
        assert np.array_equal(noisy_a, noisy_b)
        assert np.array_equal(true_a, true_b)
        assert users_a == users_b
        if users_a > 0:
            assert np.array_equal(
                ordered.finalize().estimate.probabilities,
                shuffled.finalize().estimate.probabilities,
            )


class TestDecay:
    @given(strategies.rngs(), st.sampled_from([0.5, 0.8, 0.95]))
    @SLOW_SETTINGS
    def test_decayed_window_matches_explicit_weighted_sum(self, mechanism, rng, decay):
        window = WindowedAggregator(mechanism, 3, decay=decay)
        epochs = [_random_aggregate(rng, mechanism) for _ in range(6)]
        for epoch in epochs:
            window.commit_aggregate(epoch)
        noisy, true, users = window.window_counts()
        survivors = window.epoch_aggregates()
        weights = [decay**age for age in range(len(survivors) - 1, -1, -1)]
        expected_noisy = sum(
            w * e.noisy_counts for w, e in zip(weights, survivors)
        )
        expected_users = sum(w * e.n_users for w, e in zip(weights, survivors))
        np.testing.assert_allclose(noisy, expected_noisy, atol=1e-9)
        assert users == pytest.approx(expected_users, abs=1e-9)
        assert np.all(noisy >= 0) and np.all(true >= 0)

    @given(strategies.rngs())
    @SLOW_SETTINGS
    def test_decay_one_is_bit_identical_to_hard_window(self, mechanism, rng):
        epochs = [_random_aggregate(rng, mechanism) for _ in range(5)]
        hard = WindowedAggregator(mechanism, 2)
        unit_decay = WindowedAggregator(mechanism, 2, decay=1.0)
        for epoch in epochs:
            hard.commit_aggregate(epoch)
            unit_decay.commit_aggregate(epoch)
        noisy_a, _, users_a = hard.window_counts()
        noisy_b, _, users_b = unit_decay.window_counts()
        assert np.array_equal(noisy_a, noisy_b)
        assert users_a == users_b


class TestWindowBehaviour:
    def test_commit_returns_expired_epoch(self, mechanism):
        rng = np.random.default_rng(0)
        window = WindowedAggregator(mechanism, 2)
        first = _random_aggregate(rng, mechanism)
        assert window.commit_aggregate(first) is None
        assert window.commit_aggregate(_random_aggregate(rng, mechanism)) is None
        assert window.commit_aggregate(_random_aggregate(rng, mechanism)) is first
        assert window.n_epochs_in_window == 2
        assert window.epochs_seen == 3

    def test_ingest_epoch_matches_streaming_aggregator(self, mechanism):
        """Point ingestion is the plain StreamingAggregator path, windowed."""
        points = np.random.default_rng(3).random((400, 2))
        window = WindowedAggregator(mechanism, 4)
        window.ingest_epoch(points, seed=11)
        batch = mechanism.streaming_aggregator(seed=11)
        batch.add_points(points)
        noisy, true, users = window.window_counts()
        assert np.array_equal(noisy, batch.noisy_counts)
        assert np.array_equal(true, batch.true_cell_counts)
        assert users == batch.n_users

    def test_ingest_epoch_cells_roundtrip(self, mechanism):
        cells = np.random.default_rng(4).integers(0, mechanism.grid.n_cells, 300)
        window = WindowedAggregator(mechanism, 2)
        aggregate = window.ingest_epoch_cells(cells, seed=7)
        assert aggregate.n_users == 300
        expected = np.bincount(cells, minlength=mechanism.grid.n_cells).astype(float)
        assert np.array_equal(window.window_counts()[1], expected)

    def test_true_distribution_tracks_window_population(self, mechanism):
        window = WindowedAggregator(mechanism, 1)
        cells = np.zeros(50, dtype=np.int64)  # everyone in cell 0
        window.ingest_epoch_cells(cells, seed=0)
        truth = window.true_distribution()
        assert truth.flat()[0] == 1.0
        window.ingest_epoch_cells(np.full(50, 7, dtype=np.int64), seed=1)
        truth = window.true_distribution()
        assert truth.flat()[0] == 0.0 and truth.flat()[7] == 1.0

    def test_validation_errors(self, mechanism):
        with pytest.raises(ValueError, match="window_epochs"):
            WindowedAggregator(mechanism, 0)
        with pytest.raises(ValueError, match="decay"):
            WindowedAggregator(mechanism, 2, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            WindowedAggregator(mechanism, 2, decay=1.5)
        window = WindowedAggregator(mechanism, 2)
        with pytest.raises(TypeError, match="ShardAggregate"):
            window.commit_aggregate(np.zeros(4))
        other = DiscreteDAM(GridSpec.unit(3), 2.0, b_hat=1)
        with pytest.raises(ValueError, match="different mechanism"):
            window.commit_aggregate(other.streaming_aggregator(seed=0).state())
        with pytest.raises(ValueError, match="no users"):
            window.true_distribution()


class TestWindowedPrivacyAudit:
    @given(strategies.grid_sides(2, 4), st.sampled_from([1.4, 3.5]), strategies.seeds())
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_windowed_deployment_mechanism_within_e_eps(self, d, epsilon, seed):
        """The randomizer a windowed deployment runs per report stays within e^eps.

        Windowing (and the warm-started re-solve) is post-processing of reports the
        mechanism already privatized, so the deployment's per-report guarantee is
        exactly the mechanism's.  The audit runs against the same mechanism
        instance a WindowedAggregator streams through, with the established
        ``confidence_z=4`` max-over-outputs/pairs/examples convention.
        """
        mechanism = DiscreteDAM(GridSpec.unit(d), epsilon, b_hat=1)
        window = WindowedAggregator(mechanism, 2)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            window.ingest_epoch(rng.random((150, 2)), seed=rng)
        assert window.finalize().estimate.probabilities.shape == (d, d)
        n_trials = max(5_000, 300 * mechanism.output_domain_size())
        results = audit_mechanism(
            window.mechanism,
            n_pairs=2,
            n_trials=n_trials,
            confidence_z=4.0,
            seed=seed,
        )
        assert not any(result.violated for result in results), (
            f"windowed DAM exceeded e^eps at epsilon={epsilon}: "
            f"{max(r.epsilon_lower_confidence for r in results):.3f}"
        )
