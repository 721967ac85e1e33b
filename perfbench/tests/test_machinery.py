"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
from dataclasses import asdict

import pytest

from pbench import calibrate, inputs, layers, measure, serve
from pbench.tracing import Tracer, self_times, top_level_time

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


# ------------------------------------------------------------- percentiles
def test_nearest_rank_picks_the_smallest_covering_sample():
    values = list(range(1, 101))
    assert measure.nearest_rank(values, 50) == 50
    assert measure.nearest_rank(values, 95) == 95
    assert measure.nearest_rank(values, 100) == 100
    assert measure.nearest_rank([7.0], 95) == 7.0


def test_tail_rule_picks_p95_at_246_samples():
    assert measure.tail_percent(246) == 95
    values = [float(v) for v in range(246)]
    summary = measure.latency_summary(values)
    assert summary["tail_percent"] == 95
    # rank ceil(0.95 * 246) = 234, leaving 12 samples beyond it
    assert summary["tail_ms"] == 233.0 * 1000.0
    assert len([v for v in values if v > 233.0]) >= measure.TAIL_BEYOND


def test_tail_rule_steps_down_until_ten_samples_lie_beyond():
    for n in (20, 60, 100, 150, 199, 200, 1000):
        percent = measure.tail_percent(n)
        beyond = n - (-(-percent * n // 100))
        assert beyond >= measure.TAIL_BEYOND or percent == 50
        if percent < measure.TAIL_CAP:
            above = percent + 1
            assert n - (-(-above * n // 100)) < measure.TAIL_BEYOND
    assert measure.tail_percent(100) == 90
    assert measure.tail_percent(200) == 95
    assert measure.tail_percent(5) == 50


# ------------------------------------------------------------- seeded inputs
@pytest.fixture(scope="module")
def tiny_competitions(tmp_path_factory):
    from repro.workloads import build_competition

    root = str(tmp_path_factory.mktemp("competitions"))
    return {
        name: build_competition(name, root, seed=0, n_scripts=4, n_rows=120)
        for name in ("titanic", "medical")
    }


def _all_inputs(competitions, seed):
    sizes = {name: len(c.scripts) for name, c in competitions.items()}
    pools = inputs.user_scripts(competitions, seed)
    requests = inputs.serve_requests(seed, 2, sizes)
    return json.dumps(
        {
            "table5": inputs.table5_groups(sorted(sizes), seed),
            "pools": pools,
            "requests": requests,
            "messages": [inputs.request_message(r, competitions, pools) for r in requests],
        },
        sort_keys=True,
        default=asdict,
    )


def test_same_seed_gives_byte_identical_inputs(tiny_competitions):
    assert _all_inputs(tiny_competitions, 7) == _all_inputs(tiny_competitions, 7)


def test_another_seed_gives_other_inputs(tiny_competitions):
    first = json.loads(_all_inputs(tiny_competitions, 7))
    second = json.loads(_all_inputs(tiny_competitions, 8))
    for part in ("table5", "pools", "requests"):
        assert first[part] != second[part], part


def test_table5_order_keeps_each_competitions_scripts_ascending():
    groups = inputs.table5_groups(["a", "b", "c"], seed=3)
    assert sorted(groups) == [(n, i) for n in "abc" for i in range(inputs.TABLE5_SCRIPTS)]
    for name in "abc":
        indices = [index for group, index in groups if group == name]
        assert indices == sorted(indices)


def test_every_request_block_carries_the_exact_mix():
    sizes = {name: 10 for name in ("house", "medical", "nlp", "sales", "spaceship", "titanic")}
    requests = inputs.serve_requests(1, 3, sizes)
    assert [r.index for r in requests] == list(range(3 * inputs.SERVE_BLOCK))
    for start in range(0, len(requests), inputs.SERVE_BLOCK):
        block = requests[start : start + inputs.SERVE_BLOCK]
        for op, share in inputs.OP_MIX:
            for name in sizes:
                cell = [r for r in block if r.op == op and r.corpus == name]
                assert len(cell) == round(share * inputs.SERVE_BLOCK / len(sizes))
        assert sum(r.edit is not None for r in block) == round(inputs.EDIT_SHARE * inputs.SERVE_BLOCK)


# ----------------------------------------------------- failures count as misses
def test_refused_and_failed_requests_count_against_slo_and_failed_share():
    messages = [{"id": f"r{i}"} for i in range(5)]
    responses = {
        "r0": {"id": "r0", "ok": True},
        "r1": {"id": "r1", "ok": True},
        "r2": {"id": "r2", "ok": False, "error": {"kind": "queue_full"}},
        "r3": {"id": "r3", "ok": False, "error": {"kind": "standardization"}},
        "r4": {"id": "r4", "ok": False, "error": {"kind": "deadline"}},
    }
    answered = serve.outcomes(messages, responses, [0.2, 2.5, 0.1, 0.3, 1.0])
    assert answered == [0.2, 2.5, None, None, None]
    # only r0 is ok within the SLO; r1 is ok but late
    assert measure.slo_met_share(answered) == pytest.approx(1 / 5)
    failed = sum(1 for outcome in answered if outcome is None)
    assert measure.failed_share(len(answered), failed) == pytest.approx(3 / 5)


# -------------------------------------------------------------- calibration
def test_host_clock_scales_measured_seconds_to_the_reference_host():
    clock = calibrate.HostClock()
    assert clock.scale() == 1.0  # no sample yet: the reference itself
    ref = calibrate.REFERENCE_CHUNK_S
    # a host twice as slow as the reference halves every measured time
    clock.samples = [2 * ref, 2 * ref]
    assert clock.reference(3.0) == pytest.approx(1.5)
    # the mean, not the median, weights the host's speed
    clock.samples = [ref, ref, 4 * ref]
    assert clock.scale() == pytest.approx(0.5)
    assert clock.scale_since(2) == pytest.approx(0.25)


def test_calibration_bursts_last_their_share_and_are_counted():
    clock = calibrate.HostClock()
    clock.after(0.0)  # at least one chunk, however short the work
    assert len(clock.samples) == 1
    clock.after(0.2)
    assert clock.spent >= 0.2 * calibrate.DUTY
    assert clock.spent == pytest.approx(sum(clock.samples))


# ------------------------------------------------------------------ metrics
def _benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def test_every_emitted_metric_is_declared_with_its_unit():
    spec = _benchmark_json()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert dict(measure.END_TO_END) == declared_e2e
    assert dict(layers.PER_LAYER) == declared_layer
    for name in list(declared_e2e) + list(declared_layer):
        assert measure.METRIC_NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == ["table5", "serve-mixed"]


def test_assembled_per_layer_metrics_cover_the_declared_list():
    emitted = layers.assemble([], [], [], 1.0, {"trace.ops": 3})
    assert list(emitted) == [name for name, _ in layers.PER_LAYER]
    with pytest.raises(KeyError):
        layers.assemble([], [], [], 1.0, {"no.such_metric": 1})


# ------------------------------------------------------------------ tracing
def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.enabled = True

    def inner():
        return 1

    def outer():
        return tracer.call("lang.parse", inner)

    tracer.call("core.standardize", outer)
    spans = tracer.spans
    assert {s[3] for s in spans} == {"lang.parse", "core.standardize"}
    child = next(s for s in spans if s[3] == "lang.parse")
    parent = next(s for s in spans if s[3] == "core.standardize")
    assert child[2] == parent[1]
    own = self_times(spans)
    assert own["core"] == pytest.approx((parent[5] - parent[4]) - (child[5] - child[4]))
    assert top_level_time(spans) == pytest.approx(parent[5] - parent[4])
