"""Tests for the synthetic arrival-trace generators (repro.serving.traffic)."""

from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    DecodeRequest,
    DiurnalPattern,
    FlashCrowdPattern,
    burstiness,
    bursty_workload,
    decode_workload,
    diurnal_workload,
    expected_arrivals,
    flash_crowd_workload,
    merge_decode_workloads,
    mmpp_arrivals,
    poisson_arrivals,
    trace_workload,
    windowed_rates,
)


# --------------------------------------------------------------------------- #
# Rate patterns
# --------------------------------------------------------------------------- #
class TestPatterns:
    def test_diurnal_cycle_shape(self):
        pattern = DiurnalPattern(base_rate=10.0, period=100.0, amplitude=0.5)
        assert pattern.rate(0.0) == pytest.approx(10.0)
        assert pattern.rate(25.0) == pytest.approx(15.0)  # peak at quarter period
        assert pattern.rate(75.0) == pytest.approx(5.0)  # trough at three quarters
        assert pattern.rate(100.0) == pytest.approx(10.0)  # periodic
        assert pattern.peak_rate == pytest.approx(15.0)

    def test_diurnal_phase_shift(self):
        shifted = DiurnalPattern(base_rate=10.0, period=100.0, amplitude=0.5, phase=25.0)
        assert shifted.rate(50.0) == pytest.approx(15.0)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="base_rate"):
            DiurnalPattern(base_rate=0.0, period=10.0)
        with pytest.raises(ValueError, match="period"):
            DiurnalPattern(base_rate=1.0, period=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalPattern(base_rate=1.0, period=10.0, amplitude=1.5)

    def test_flash_crowd_piecewise_shape(self):
        pattern = FlashCrowdPattern(
            base_rate=2.0, start=10.0, ramp=4.0, hold=6.0, decay=8.0, peak_multiplier=4.0
        )
        assert pattern.rate(0.0) == pytest.approx(2.0)  # baseline before
        assert pattern.rate(12.0) == pytest.approx(5.0)  # halfway up the ramp
        assert pattern.rate(14.0) == pytest.approx(8.0)  # ramp complete
        assert pattern.rate(17.0) == pytest.approx(8.0)  # holding the peak
        assert pattern.rate(24.0) == pytest.approx(5.0)  # halfway down the decay
        assert pattern.rate(28.0) == pytest.approx(2.0)  # baseline after
        assert pattern.peak_rate == pytest.approx(8.0)

    def test_flash_crowd_zero_ramp_and_decay(self):
        pattern = FlashCrowdPattern(
            base_rate=1.0, start=5.0, ramp=0.0, hold=2.0, decay=0.0, peak_multiplier=3.0
        )
        assert pattern.rate(4.999) == pytest.approx(1.0)
        assert pattern.rate(5.0) == pytest.approx(3.0)
        assert pattern.rate(6.999) == pytest.approx(3.0)
        assert pattern.rate(7.0) == pytest.approx(1.0)

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError, match="base_rate"):
            FlashCrowdPattern(base_rate=0.0, start=1.0, ramp=1.0, hold=1.0, decay=1.0)
        with pytest.raises(ValueError, match=">= 0"):
            FlashCrowdPattern(base_rate=1.0, start=-1.0, ramp=1.0, hold=1.0, decay=1.0)
        with pytest.raises(ValueError, match="peak_multiplier"):
            FlashCrowdPattern(
                base_rate=1.0, start=1.0, ramp=1.0, hold=1.0, decay=1.0,
                peak_multiplier=0.5,
            )

    def test_expected_arrivals_constant_rate(self):
        assert expected_arrivals(lambda t: 3.0, duration=10.0) == pytest.approx(30.0)

    def test_expected_arrivals_diurnal_integrates_to_base(self):
        # Over a whole period the sinusoid cancels: E[N] = base_rate * duration.
        pattern = DiurnalPattern(base_rate=5.0, period=40.0, amplitude=0.8)
        assert expected_arrivals(pattern, duration=40.0) == pytest.approx(
            200.0, rel=1e-4
        )

    def test_expected_arrivals_validation(self):
        with pytest.raises(ValueError, match="duration"):
            expected_arrivals(lambda t: 1.0, duration=0.0)
        with pytest.raises(ValueError, match="steps"):
            expected_arrivals(lambda t: 1.0, duration=1.0, steps=0)


# --------------------------------------------------------------------------- #
# Arrival samplers: determinism and rate conservation
# --------------------------------------------------------------------------- #
class TestPoissonArrivals:
    def test_seeded_replay_is_bit_identical(self):
        pattern = DiurnalPattern(base_rate=20.0, period=50.0)
        first = list(poisson_arrivals(pattern, duration=100.0, seed=7))
        second = list(poisson_arrivals(pattern, duration=100.0, seed=7))
        assert first == second
        assert list(poisson_arrivals(pattern, duration=100.0, seed=8)) != first

    def test_times_sorted_and_in_range(self):
        pattern = DiurnalPattern(base_rate=20.0, period=50.0)
        times = list(poisson_arrivals(pattern, duration=100.0, seed=1))
        assert times == sorted(times)
        assert all(0.0 <= t < 100.0 for t in times)

    def test_rate_conservation_against_expected_integral(self):
        # The realised count matches the deterministic rate integral up to
        # Poisson noise (4 sigma keeps the seeded test safely deterministic).
        pattern = DiurnalPattern(base_rate=50.0, period=60.0, amplitude=0.6)
        times = list(poisson_arrivals(pattern, duration=120.0, seed=3))
        expected = expected_arrivals(pattern, duration=120.0)
        assert abs(len(times) - expected) < 4.0 * math.sqrt(expected)

    def test_lazy_iterator_streams_without_materialising(self):
        pattern = DiurnalPattern(base_rate=1e6, period=1e3)
        stream = poisson_arrivals(pattern, duration=1e3, seed=0)
        first = [next(stream) for _ in range(1000)]
        assert first == sorted(first)

    def test_duration_validation(self):
        pattern = DiurnalPattern(base_rate=1.0, period=1.0)
        with pytest.raises(ValueError, match="duration"):
            next(poisson_arrivals(pattern, duration=0.0))


class TestMMPPArrivals:
    def test_seeded_replay_is_bit_identical(self):
        kwargs = dict(
            quiet_rate=2.0, burst_rate=40.0, mean_quiet=10.0, mean_burst=3.0,
            duration=200.0,
        )
        assert list(mmpp_arrivals(seed=5, **kwargs)) == list(
            mmpp_arrivals(seed=5, **kwargs)
        )
        assert list(mmpp_arrivals(seed=6, **kwargs)) != list(
            mmpp_arrivals(seed=5, **kwargs)
        )

    def test_times_sorted_and_in_range(self):
        times = list(
            mmpp_arrivals(
                quiet_rate=2.0, burst_rate=40.0, mean_quiet=10.0, mean_burst=3.0,
                duration=200.0, seed=1,
            )
        )
        assert times == sorted(times)
        assert all(0.0 <= t < 200.0 for t in times)

    def test_long_run_rate_between_quiet_and_burst(self):
        times = list(
            mmpp_arrivals(
                quiet_rate=2.0, burst_rate=40.0, mean_quiet=10.0, mean_burst=3.0,
                duration=2000.0, seed=2,
            )
        )
        mean_rate = len(times) / 2000.0
        assert 2.0 < mean_rate < 40.0
        # The stationary mean is the sojourn-weighted rate mixture.
        stationary = (2.0 * 10.0 + 40.0 * 3.0) / (10.0 + 3.0)
        assert mean_rate == pytest.approx(stationary, rel=0.25)

    def test_is_burstier_than_stationary_poisson(self):
        window = 10.0
        bursty = mmpp_arrivals(
            quiet_rate=1.0, burst_rate=50.0, mean_quiet=20.0, mean_burst=4.0,
            duration=400.0, seed=3,
        )
        flat_pattern = DiurnalPattern(base_rate=10.0, period=400.0, amplitude=0.0)
        flat = poisson_arrivals(flat_pattern, duration=400.0, seed=3)
        assert burstiness(list(bursty), window=window) > 2.0
        assert burstiness(list(flat), window=window) < 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            next(
                mmpp_arrivals(
                    quiet_rate=0.0, burst_rate=1.0, mean_quiet=1.0, mean_burst=1.0,
                    duration=1.0,
                )
            )
        with pytest.raises(ValueError, match="mean"):
            next(
                mmpp_arrivals(
                    quiet_rate=1.0, burst_rate=1.0, mean_quiet=0.0, mean_burst=1.0,
                    duration=1.0,
                )
            )


# --------------------------------------------------------------------------- #
# Workload synthesis
# --------------------------------------------------------------------------- #
class TestTraceWorkload:
    def test_attributes_mirror_decode_workload_semantics(self):
        trace = diurnal_workload(
            "alpha",
            base_rate=30.0,
            period=20.0,
            duration=40.0,
            seed=11,
            prompt_tokens=(8, 16),
            output_tokens=(2, 6),
            interactive_fraction=0.5,
            slo_seconds=0.25,
            tenant="team-a",
        )
        assert trace
        for index, req in enumerate(trace):
            assert req.request_id == index
            assert req.model == "alpha"
            assert req.tenant == "team-a"
            assert 8 <= req.prompt_tokens <= 16
            assert 2 <= req.max_new_tokens <= 6
            if req.slo_class == SLO_INTERACTIVE:
                assert req.deadline == pytest.approx(req.arrival_time + 0.25)
            else:
                assert req.slo_class == SLO_BEST_EFFORT
                assert req.deadline is None

    def test_callable_slo_scales_with_work(self):
        trace = flash_crowd_workload(
            "alpha",
            base_rate=20.0,
            start=2.0,
            ramp=2.0,
            hold=2.0,
            decay=2.0,
            duration=10.0,
            seed=4,
            interactive_fraction=1.0,
            slo_seconds=lambda prompt, output: 0.001 * (prompt + output),
        )
        for req in trace:
            expected = 0.001 * (req.prompt_tokens + req.max_new_tokens)
            assert req.deadline == pytest.approx(req.arrival_time + expected)

    def test_seeded_workloads_replay_bit_identically(self):
        kwargs = dict(
            quiet_rate=3.0, burst_rate=30.0, mean_quiet=8.0, mean_burst=2.0,
            duration=60.0, seed=9, tenant="spiky",
        )
        assert bursty_workload("alpha", **kwargs) == bursty_workload("alpha", **kwargs)

    def test_max_requests_truncates_lazily(self):
        full = diurnal_workload(
            "alpha", base_rate=50.0, period=10.0, duration=20.0, seed=2
        )
        capped = diurnal_workload(
            "alpha", base_rate=50.0, period=10.0, duration=20.0, seed=2, max_requests=10
        )
        assert len(capped) == 10
        assert capped == full[:10]

    def test_validation(self):
        with pytest.raises(ValueError, match="interactive_fraction"):
            trace_workload([0.0], "alpha", rng=random.Random(0), interactive_fraction=2.0)
        with pytest.raises(ValueError, match="max_requests"):
            trace_workload([0.0], "alpha", rng=random.Random(0), max_requests=0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "bounds", [(0, 64), (-3, 4), (0, 0), (5, 4), (8, 1)], ids=str
    )
    @pytest.mark.parametrize("name", ["prompt_tokens", "output_tokens"])
    def test_token_ranges_are_checked_on_every_seed(self, name, bounds, seed):
        """A range that could draw a zero-token request, or is empty, fails
        up front whatever the seed, not only when a zero is drawn."""
        with pytest.raises(ValueError, match=name):
            decode_workload("alpha", num_requests=5, rate=1.0, seed=seed, **{name: bounds})
        with pytest.raises(ValueError, match=name):
            trace_workload([], "alpha", rng=random.Random(seed), **{name: bounds})

    def test_single_value_ranges_are_legal(self):
        trace = decode_workload(
            "alpha", num_requests=5, rate=1.0, prompt_tokens=(1, 1), output_tokens=(7, 7)
        )
        assert {(req.prompt_tokens, req.max_new_tokens) for req in trace} == {(1, 7)}


# --------------------------------------------------------------------------- #
# Reference oracle: the per-request generator and merge as first written
# --------------------------------------------------------------------------- #
def reference_trace_workload(
    arrival_times,
    model,
    *,
    rng,
    prompt_tokens=(16, 128),
    output_tokens=(4, 48),
    interactive_fraction=0.75,
    slo_seconds=None,
    tenant="",
    max_requests=None,
):
    """``trace_workload`` as first written: ``randint`` draws, keyword
    construction, every choice made again per request."""
    if not 0.0 <= interactive_fraction <= 1.0:
        raise ValueError(
            f"interactive_fraction must be in [0, 1], got {interactive_fraction}"
        )
    if max_requests is not None and max_requests < 1:
        raise ValueError(f"max_requests must be >= 1, got {max_requests}")
    requests = []
    times = (
        arrival_times
        if max_requests is None
        else itertools.islice(arrival_times, max_requests)
    )
    for index, clock in enumerate(times):
        prompt = rng.randint(*prompt_tokens)
        output = rng.randint(*output_tokens)
        interactive = rng.random() < interactive_fraction
        deadline = None
        if interactive and slo_seconds is not None:
            relative = (
                slo_seconds(prompt, output) if callable(slo_seconds) else slo_seconds
            )
            deadline = clock + relative
        requests.append(
            DecodeRequest(
                request_id=index,
                model=model,
                arrival_time=clock,
                prompt_tokens=prompt,
                max_new_tokens=output,
                slo_class=SLO_INTERACTIVE if interactive else SLO_BEST_EFFORT,
                deadline=deadline,
                tenant=tenant,
            )
        )
    return requests


def reference_merge_decode_workloads(*streams):
    """``merge_decode_workloads`` as first written: a lambda key, a field
    by field duplicate scan and keyword construction."""
    merged = [req for stream in streams for req in stream]
    keyed = sorted(
        merged,
        key=lambda req: (req.arrival_time, req.tenant, req.model, req.request_id),
    )
    for first, second in zip(keyed, keyed[1:]):
        if (
            first.arrival_time == second.arrival_time
            and first.tenant == second.tenant
            and first.model == second.model
            and first.request_id == second.request_id
        ):
            raise ValueError("indistinguishable requests in merge_decode_workloads")
    return [
        DecodeRequest(
            request_id=index,
            model=req.model,
            arrival_time=req.arrival_time,
            prompt_tokens=req.prompt_tokens,
            max_new_tokens=req.max_new_tokens,
            slo_class=req.slo_class,
            deadline=req.deadline,
            tenant=req.tenant,
        )
        for index, req in enumerate(keyed)
    ]


def referenced(generate):
    """``generate()`` with every generator attaching attributes through the
    reference ``trace_workload``."""
    with mock.patch(
        "repro.serving.request.trace_workload", reference_trace_workload
    ), mock.patch("repro.serving.traffic.trace_workload", reference_trace_workload):
        return generate()


#: Inclusive token ranges: width 1, powers of two (where ``_randbelow``
#: never rejects a draw) and widths just past them (where it rejects most).
token_ranges = st.tuples(
    st.integers(1, 100),
    st.one_of(st.sampled_from([1, 2, 4, 8, 64, 128, 3, 5, 65, 129]), st.integers(1, 300)),
).map(lambda low_width: (low_width[0], low_width[0] + low_width[1] - 1))

#: ``slo_seconds`` as None, a constant or a callable of the work requested.
slo_rules = st.sampled_from(
    [
        None,
        0.0,
        0.25,
        3.5,
        lambda p, o: 0.001 * (p + 2 * o),
        lambda p, o: 0.5 * math.ceil(p / 7) + o,
    ]
)

request_kwargs = st.fixed_dictionaries(
    {
        "prompt_tokens": token_ranges,
        "output_tokens": token_ranges,
        "interactive_fraction": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        "slo_seconds": slo_rules,
        "tenant": st.sampled_from(["", "acme", "globex"]),
    }
)


def generator_call(kind, seed, kwargs, max_requests):
    """A zero-argument call of the generator ``kind`` on small traces."""
    capped = {} if max_requests is None else {"max_requests": max_requests}
    if kind == "decode":
        return lambda: decode_workload(
            "alpha", num_requests=max_requests or 40, rate=5.0, seed=seed, **kwargs
        )
    if kind == "diurnal":
        return lambda: diurnal_workload(
            "alpha", base_rate=8.0, period=5.0, duration=6.0, seed=seed, **kwargs, **capped
        )
    if kind == "bursty":
        return lambda: bursty_workload(
            "alpha",
            quiet_rate=2.0,
            burst_rate=20.0,
            mean_quiet=2.0,
            mean_burst=1.0,
            duration=6.0,
            seed=seed,
            **kwargs,
            **capped,
        )
    return lambda: flash_crowd_workload(
        "alpha",
        base_rate=3.0,
        start=1.0,
        ramp=1.0,
        hold=1.0,
        decay=1.0,
        duration=6.0,
        seed=seed,
        **kwargs,
        **capped,
    )


generator_kinds = st.sampled_from(["decode", "diurnal", "bursty", "flash"])


class TestTraceOracle:
    """Every generator draws the same trace as the reference
    ``trace_workload``, and merges of them equal the reference merge."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=generator_kinds,
        seed=st.integers(0, 2**32),
        kwargs=request_kwargs,
        max_requests=st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_generators_match_reference(self, kind, seed, kwargs, max_requests):
        generate = generator_call(kind, seed, kwargs, max_requests)
        actual = generate()
        assert repr(actual) == repr(referenced(generate))
        if max_requests is not None:
            assert len(actual) <= max_requests

    @settings(max_examples=60, deadline=None)
    @given(
        streams=st.lists(
            st.tuples(generator_kinds, st.integers(0, 2**32), request_kwargs),
            min_size=1,
            max_size=4,
        ),
        model_per_stream=st.booleans(),
    )
    def test_merges_match_reference(self, streams, model_per_stream):
        calls = []
        for position, (kind, seed, kwargs) in enumerate(streams):
            # Distinct (tenant, model) streams: a merge rejects two copies
            # of one stream.
            kwargs = {**kwargs, "tenant": f"{kwargs['tenant']}{position}"}
            calls.append(generator_call(kind, seed, kwargs, None))
        traces = [generate() for generate in calls]
        if model_per_stream:
            traces = [
                [
                    DecodeRequest(
                        req.request_id,
                        f"m{position % 2}",
                        req.arrival_time,
                        req.prompt_tokens,
                        req.max_new_tokens,
                        req.slo_class,
                        req.deadline,
                        req.tenant,
                    )
                    for req in trace
                ]
                for position, trace in enumerate(traces)
            ]
        expected = reference_merge_decode_workloads(*traces)
        assert repr(merge_decode_workloads(*traces)) == repr(expected)
        assert repr(merge_decode_workloads(*reversed(traces))) == repr(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=8),
        labels=st.lists(
            st.tuples(st.sampled_from(["", "a", "b"]), st.sampled_from(["x", "y", "z"])),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_merges_break_arrival_ties_like_the_reference(self, times, labels, seed):
        """Streams on one clock tie on every arrival, so the rest of the
        key (tenant, then model, then id) orders the merge."""
        traces = [
            trace_workload(sorted(times), model, rng=random.Random(seed + i), tenant=tenant)
            for i, (tenant, model) in enumerate(labels)
        ]
        expected = reference_merge_decode_workloads(*traces)
        assert repr(merge_decode_workloads(*traces)) == repr(expected)
        assert repr(merge_decode_workloads(*reversed(traces))) == repr(expected)

    def test_merge_rejects_what_the_reference_rejects(self):
        stream = decode_workload("alpha", num_requests=3, rate=1.0, seed=1, tenant="acme")
        for merge in (merge_decode_workloads, reference_merge_decode_workloads):
            with pytest.raises(ValueError, match="indistinguishable"):
                merge(stream, [], stream)


# --------------------------------------------------------------------------- #
# Shape assertions and analysis helpers
# --------------------------------------------------------------------------- #
class TestTraceShapes:
    def test_flash_crowd_spike_shows_in_windowed_rates(self):
        duration, window = 120.0, 10.0
        trace = flash_crowd_workload(
            "alpha",
            base_rate=5.0,
            start=60.0,
            ramp=10.0,
            hold=20.0,decay=10.0,
            peak_multiplier=6.0,
            duration=duration,
            seed=13,
        )
        rates = dict(windowed_rates(trace, window=window, start=0.0, end=duration))
        baseline = sum(rates[t] for t in (0.0, 10.0, 20.0, 30.0)) / 4.0
        peak = max(rates[70.0], rates[80.0])  # the hold plateau
        assert peak > 3.0 * baseline
        # After the decay the rate falls back toward baseline.
        assert rates[110.0] < 2.0 * baseline

    def test_diurnal_peak_window_beats_trough_window(self):
        period = 80.0
        trace = diurnal_workload(
            "alpha", base_rate=20.0, period=period, amplitude=0.8, duration=period,
            seed=17,
        )
        rates = dict(windowed_rates(trace, window=20.0, start=0.0, end=period))
        assert rates[0.0] + rates[20.0] > rates[40.0] + rates[60.0]

    def test_windowed_rates_conserve_the_trace(self):
        trace = bursty_workload(
            "alpha",
            quiet_rate=4.0, burst_rate=40.0, mean_quiet=6.0, mean_burst=2.0,
            duration=50.0, seed=21,
        )
        window = 5.0
        series = windowed_rates(trace, window=window, start=0.0, end=50.0)
        counted = sum(rate * window for _, rate in series)
        assert counted == pytest.approx(len(trace))

    def test_windowed_rates_validation_and_empty(self):
        with pytest.raises(ValueError, match="window"):
            windowed_rates([], window=0.0)
        assert windowed_rates([], window=1.0, start=5.0, end=5.0) == []
        assert math.isnan(burstiness([], window=1.0))


# --------------------------------------------------------------------------- #
# Merge compatibility with the stationary generators
# --------------------------------------------------------------------------- #
class TestMergeCompatibility:
    def test_traces_merge_with_decode_workload_streams(self):
        diurnal = diurnal_workload(
            "alpha", base_rate=10.0, period=30.0, duration=30.0, seed=1,
            tenant="steady",
        )
        spiky = bursty_workload(
            "alpha",
            quiet_rate=2.0, burst_rate=20.0, mean_quiet=5.0, mean_burst=2.0,
            duration=30.0, seed=2, tenant="spiky",
        )
        stationary = decode_workload(
            "alpha", num_requests=40, rate=3.0, seed=3, tenant="flat"
        )
        merged = merge_decode_workloads(diurnal, spiky, stationary)
        assert len(merged) == len(diurnal) + len(spiky) + len(stationary)
        times = [req.arrival_time for req in merged]
        assert times == sorted(times)
        assert [req.request_id for req in merged] == list(range(len(merged)))
        assert {req.tenant for req in merged} == {"steady", "spiky", "flat"}

    def test_merge_is_permutation_invariant(self):
        a = diurnal_workload(
            "alpha", base_rate=8.0, period=10.0, duration=10.0, seed=4, tenant="a"
        )
        b = flash_crowd_workload(
            "alpha", base_rate=4.0, start=2.0, ramp=2.0, hold=2.0, decay=2.0,
            duration=10.0, seed=5, tenant="b",
        )
        assert merge_decode_workloads(a, b) == merge_decode_workloads(b, a)
