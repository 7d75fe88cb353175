"""Tests for the seeded foreground request generators."""

import numpy as np
import pytest

from repro.ec import RSCode, place_stripes
from repro.exceptions import LoadGenError
from repro.loadgen import (
    READ,
    WRITE,
    LoadProfile,
    RateShape,
    generate_requests,
    rate_profile_from_trace,
    zipf_weights,
)
from repro.traces import generate_trace
from repro.traces.generators import PROFILES
from repro.traces.workload import WorkloadTrace

CODE = RSCode(5, 3)
NODE_COUNT = 12


def make_stripes(count=8, seed=0):
    return place_stripes(count, CODE, NODE_COUNT, np.random.default_rng(seed))


class TestLoadProfile:
    def test_defaults_valid(self):
        LoadProfile()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": -1.0},
            {"duration": 0.0},
            {"read_fraction": 1.5},
            {"request_size": 0},
            {"zipf_s": -0.1},
            {"tenants": ("a", "a")},
            {"tenants": ("",)},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(LoadGenError):
            LoadProfile(**kwargs)


class TestZipfWeights:
    def test_normalised_and_decreasing(self):
        weights = zipf_weights(10, 0.9)
        assert weights.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert np.allclose(weights, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(LoadGenError):
            zipf_weights(0, 1.0)


class TestZipfDraw:
    """``generate_requests`` draws its stripe from a CDF built once.

    Every recorded stream was drawn with ``Generator.choice(count,
    p=weights)``; this pins the draw to it, so a numpy whose ``choice``
    draws another index, or consumes another amount of the stream,
    fails here rather than in a digest.
    """

    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_cdf_draw_equals_choice(self, seed):
        for count, s in [(1, 0.9), (5, 0.0), (160, 0.9), (1000, 1.3)]:
            weights = zipf_weights(count, s)
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            drawn = np.random.default_rng(seed)
            chosen = np.random.default_rng(seed)
            for _ in range(200):
                index = int(cdf.searchsorted(drawn.random(), side="right"))
                assert index == int(chosen.choice(count, p=weights))
            assert drawn.bit_generator.state == chosen.bit_generator.state


class TestGenerateRequests:
    def test_deterministic_for_seed(self):
        stripes = make_stripes()
        profile = LoadProfile(arrival_rate=40.0, duration=10.0)
        a = generate_requests(profile, stripes, NODE_COUNT, seed=3)
        b = generate_requests(profile, stripes, NODE_COUNT, seed=3)
        assert a == b
        c = generate_requests(profile, stripes, NODE_COUNT, seed=4)
        assert a != c

    def test_time_ordered_within_duration(self):
        stripes = make_stripes()
        profile = LoadProfile(arrival_rate=50.0, duration=5.0)
        requests = generate_requests(profile, stripes, NODE_COUNT, seed=1)
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 5.0 for t in arrivals)

    def test_read_fraction_respected(self):
        stripes = make_stripes()
        profile = LoadProfile(
            arrival_rate=200.0, duration=10.0, read_fraction=0.8
        )
        requests = generate_requests(profile, stripes, NODE_COUNT, seed=0)
        reads = sum(r.kind == READ for r in requests)
        assert reads / len(requests) == pytest.approx(0.8, abs=0.05)
        assert any(r.kind == WRITE for r in requests)

    def test_reads_never_target_their_holder(self):
        stripes = make_stripes()
        by_id = {s.stripe_id: s for s in stripes}
        profile = LoadProfile(arrival_rate=100.0, duration=5.0)
        for request in generate_requests(profile, stripes, NODE_COUNT, seed=2):
            if request.kind == READ:
                holder = by_id[request.stripe_id].placement[
                    request.chunk_index
                ]
                assert request.client != holder

    def test_zipf_concentrates_on_low_stripe_ids(self):
        stripes = make_stripes(count=10)
        profile = LoadProfile(
            arrival_rate=300.0, duration=10.0, zipf_s=1.2
        )
        requests = generate_requests(profile, stripes, NODE_COUNT, seed=0)
        lowest = min(s.stripe_id for s in stripes)
        hottest = max(
            {r.stripe_id for r in requests},
            key=lambda sid: sum(r.stripe_id == sid for r in requests),
        )
        assert hottest == lowest

    def test_rate_profile_must_be_a_non_negative_vector(self):
        for shape, interval in (
            ([], 1.0), ([[1.0, 2.0]], 1.0), ([1.0, -0.5], 1.0), ([1.0], 0.0),
        ):
            with pytest.raises(LoadGenError):
                generate_requests(
                    LoadProfile(), make_stripes(), NODE_COUNT, seed=0,
                    rate_profile=RateShape(np.array(shape), interval),
                )

    def test_trace_modulation_follows_shape(self):
        stripes = make_stripes()
        profile = LoadProfile(arrival_rate=100.0, duration=20.0)
        shape = RateShape(np.array([2.0] * 10 + [0.1] * 10), 1.0)
        requests = generate_requests(
            profile, stripes, NODE_COUNT, seed=0, rate_profile=shape
        )
        busy = sum(r.arrival < 10.0 for r in requests)
        quiet = len(requests) - busy
        assert busy > 5 * max(quiet, 1)

    def test_needs_stripes_and_nodes(self):
        with pytest.raises(LoadGenError):
            generate_requests(LoadProfile(), [], NODE_COUNT)
        with pytest.raises(LoadGenError):
            generate_requests(LoadProfile(), make_stripes(), 1)


class TestRateProfileFromTrace:
    def test_mean_one_and_floored(self):
        trace = generate_trace(
            PROFILES["TPC-DS"], node_count=8, duration=120, seed=0
        )
        profile = rate_profile_from_trace(trace)
        assert profile.interval == 1.0
        assert profile.multipliers.shape == (120,)
        assert profile.multipliers.min() >= 0.05
        assert profile.multipliers.mean() == pytest.approx(1.0, rel=0.25)

    def test_arrivals_follow_the_traces_clock(self):
        """A 2 s trace busy for its first three samples: arrivals are
        dense over [0, 6) s, sample by sample, and trickle after."""
        busy = [[80.0] * 3 + [0.0] * 3] * 4
        trace = WorkloadTrace(
            "two-second", 100.0, busy, busy, interval=2.0
        )
        profile = rate_profile_from_trace(trace)
        assert profile.interval == 2.0
        requests = generate_requests(
            LoadProfile(arrival_rate=50.0, duration=12.0), make_stripes(),
            NODE_COUNT, seed=0, rate_profile=profile,
        )
        arrivals = np.array([r.arrival for r in requests])
        first = np.count_nonzero(arrivals < 3.0)
        second = np.count_nonzero((arrivals >= 3.0) & (arrivals < 6.0))
        after = np.count_nonzero(arrivals >= 6.0)
        assert second > first / 2
        assert after < second / 10
