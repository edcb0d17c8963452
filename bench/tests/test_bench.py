"""Tests of the benchmark's own logic: seeded inputs, span arithmetic,
failure counting, cache attribution and the speed probe."""

import io
from types import SimpleNamespace

import pytest

import speed
import workloads as W
import worker
from spans import Tracer, covered

SEEDS = range(40)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("workload", sorted(W.DRAW))
def test_inputs_repeat_per_seed_and_vary_between_seeds(workload):
    assert W.draw(workload, 7) == W.draw(workload, 7)
    assert len({repr(W.draw(workload, s)) for s in SEEDS}) > len(SEEDS) // 2


def test_dominant_draws_one_n_per_band_in_distinct_fifths():
    for seed in SEEDS:
        Ns = W.draw("dominant", seed)
        assert [lo <= N < hi for N, (lo, hi) in zip(Ns, W.DOMINANT_BANDS)] == [True] * 5
        assert sorted((N - lo) // 20 for N, (lo, _) in zip(Ns, W.DOMINANT_BANDS)) == list(range(5))


def test_identity_draws_cover_every_trichotomy_regime():
    for seed in SEEDS:
        inputs = W.draw("identity", seed)
        assert sorted(inputs["sigmas"]) == list(range(1, W.IDENTITY_N_MAX + 1))
        for N, sigmas in inputs["sigmas"].items():
            regimes = [r for r in W.trichotomy_regimes(N) if r]
            assert len(regimes) == (2 if N == 1 else 3)
            for r in regimes:
                assert sum(s in r for s in sigmas) == min(2, len(r))
            assert len(set(sigmas)) == len(sigmas)
        assert len(inputs["points"]) == W.IDENTITY_POINTS
        for N, q in inputs["points"]:
            assert 1 <= N <= W.RECONSTRUCT_N_MAX and abs(q) <= 0.5 + 1e-15


def test_landscape_draws_stay_inside_their_ranges():
    for seed in SEEDS:
        inputs = W.draw("landscape", seed)
        for k, (lo, hi) in zip(inputs["psi_k"], W.PSI_STRATA):
            assert lo <= k < hi and all(k % p for p in range(2, k))
        assert len(set(inputs["saddles"])) == 3
        assert set(inputs["saddles"]) <= set(W.ADMISSIBLE_SADDLES)
        assert all(W.QUADRATURE_N[0] <= N < W.QUADRATURE_N[1]
                   for N in inputs["quadrature_N"].values())


def test_covered_merges_overlapping_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.now = 1
        with tracer.span("a"):
            clock.now = 2
            with tracer.span("leaf"):
                clock.now = 3
            clock.now = 4
        clock.now = 5
        with tracer.span("b"):
            clock.now = 6
        clock.now = 10
    with tracer.span("second"):
        clock.now = 12
    assert tracer.self_times() == [6, 2, 1, 1, 2]
    assert [s.op for s in tracer.spans] == [0, 0, 0, 0, 1]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0, None]


def test_mpmath_calls_go_to_the_innermost_span_and_the_module_is_restored():
    fake = SimpleNamespace(**{name: (lambda x: x) for name in ("log", "sin", "cos", "exp",
                                                                 "cot", "sqrt", "polylog")})
    original = fake.log
    tracer = Tracer(FakeClock())
    kernel = tracer.wrap("k", lambda: fake.sin(fake.log(1)))
    with tracer.counting_mpmath(fake):
        fake.exp(0)                      # outside every span: not charged
        with tracer.span("op"):
            fake.sqrt(4)
            kernel()
    assert fake.log is original
    rows = tracer.summary(["k", "op", "unused"])
    assert rows["k"]["mpmath_calls"] == 2 and rows["op"]["mpmath_calls"] == 1
    assert rows["unused"] == {"calls": 0, "failed": 0, "busy_s": 0.0, "mpmath_calls": 0}


def _ops():
    def boom():
        raise ValueError("no")
    return [W.Op("good", "good", lambda: ("1", True)),
            W.Op("raises", "raises", boom),
            W.Op("wrong", "wrong", lambda: ("2", False))]


def test_failures_count_raising_ops_and_failed_checks():
    log = io.StringIO()
    between = []
    outcome = W.run_ops(_ops(), log=log, between=lambda: between.append(1))
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert len(between) == 4
    assert log.getvalue().splitlines() == ["FAILED raises: raised ValueError: no",
                                           "FAILED wrong: 2"]


def test_tracing_leaves_the_digest_unchanged_and_marks_failed_spans():
    def ops(kernel):
        return _ops() + [W.Op("calls", "calls", lambda: (str(kernel()), True))]

    def kernel():
        return 1 / 0

    tracer = Tracer(FakeClock())
    plain = W.run_ops(ops(kernel), log=io.StringIO())
    traced = W.run_ops(ops(tracer.wrap("kernel", kernel)), tracer, log=io.StringIO())
    assert plain == traced and traced.failed == 3
    assert tracer.summary(["kernel"])["kernel"]["failed"] == 1
    assert [s.failed for s in tracer.spans if s.parent is None] == [False, True, False, True]


def test_caches_are_attributed_to_their_defining_module():
    from pfrac import residues, sequences
    caches = worker.lru_caches()
    everything = [c for cs in caches.values() for c in cs]
    assert len(everything) == len(set(map(id, everything)))
    assert residues.bernoulli_over_factorial is sequences.bernoulli_over_factorial
    assert sequences.bernoulli_over_factorial in caches["sequences"]
    assert residues._pole_inverse in caches["residues"]
    worker.require_cold(caches)
    sequences.bernoulli_over_factorial(3, 64)
    try:
        with pytest.raises(RuntimeError, match="bernoulli_over_factorial"):
            worker.require_cold(caches)
        assert worker.cache_hit_ratios(caches)["sequences.cache_hit_ratio"] == 0.0
    finally:
        sequences.bernoulli_over_factorial.cache_clear()




def test_speed_probe_samples_at_most_once_per_interval():
    clock = FakeClock()
    times = iter([0.05, 0.07, 0.04, 0.05])
    probe = speed.SpeedProbe(interval=1.0, probe=lambda: next(times), clock=clock)
    probe.maybe()
    clock.now = 0.5
    probe.maybe()
    clock.now = 1.0
    probe.maybe()
    probe.take(2)
    assert probe.samples == [0.05, 0.07, 0.04, 0.05]
    assert probe.scale() == pytest.approx(speed.REFERENCE_S / 0.05)
