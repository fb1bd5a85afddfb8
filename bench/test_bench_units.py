"""Fast checks of the benchmark's own arithmetic and names (no workload runs)."""

import json
from pathlib import Path

import pytest

from bench import calib, layers, names, spans

ROOT = Path(__file__).resolve().parent.parent


def test_quantiles_interpolate_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert calib.lower_quartile(values) == 2.0
    assert calib.quantile(values, 0.5) == 3.0
    assert calib.lower_quartile([1.0, 2.0]) == 1.25
    assert calib.lower_quartile([7.0]) == 7.0
    with pytest.raises(ValueError):
        calib.lower_quartile([])


def test_lower_quartile_ignores_a_burst_of_slow_cycles():
    quiet = [1.0] * 9
    assert calib.lower_quartile(quiet + [5.0, 6.0, 7.0]) == 1.0


def _mark(end, bulk, start, label=None, kernel=(0.0, 0.0), dispatch=calib.DISPATCH_REF_S):
    return {"end": end, "bulk": bulk, "dispatch": dispatch, "start": start, "label": label,
            "kernel_end": kernel[0], "kernel_start": kernel[1]}


def test_segments_are_scaled_by_the_mean_of_their_two_samples():
    ref = calib.BULK_REF_S
    marks = [
        _mark(1.0, ref, 1.1),  # tick: first segment has only this sample
        _mark(2.1, 2 * ref, 2.2, "cycle", kernel=(0.5, 0.5)),  # closes "start", opens a cycle
        _mark(3.2, 2 * ref, 3.3),  # tick inside the cycle, machine at half speed
        _mark(4.3, 2 * ref, 4.4, "end", kernel=(0.75, 0.8)),
    ]
    start, cycle = calib.phases_of(0.0, marks)
    assert start["label"] == "start" and cycle["label"] == "cycle"
    assert start["raw_s"] == pytest.approx(2.0)
    assert start["calibrated_s"] == pytest.approx(1.0 / 1.0 + 1.0 / 1.5)
    assert cycle["raw_s"] == pytest.approx(2.0)  # the samples' own time is excluded
    assert cycle["calibrated_s"] == pytest.approx(1.0)  # two seconds at half speed
    assert (cycle["start"], cycle["end"]) == (2.2, 4.3)
    assert (start["kernel_s"], cycle["kernel_s"]) == (0.5, 0.25)
    # With the dispatch kernel (at reference speed in every sample) weighted
    # one half, the machine reads 1.5x slow instead of 2x.
    mixed = calib.phases_of(0.0, marks, dispatch_share=0.5)[1]
    assert mixed["calibrated_s"] == pytest.approx(2.0 / 1.5)


def test_marks_of_another_process_join_the_timeline_in_time_order():
    clock = calib.MarkerClock(origin=0.0)
    clock.marks = [_mark(1.0, 0.01, 1.1, "cycle"), _mark(3.0, 0.01, 3.1, "end")]
    clock.merge([{"end": 2.0, "bulk": 0.02, "dispatch": 0.001, "start": 2.1}])
    assert [mark["end"] for mark in clock.marks] == [1.0, 2.0, 3.0]
    assert clock.marks[1]["label"] is None


def _span(name, start, end, parent, cycle=1):
    return {"name": name, "start": start, "end": end, "parent": parent, "cycle": cycle}


def test_self_time_is_duration_minus_direct_children():
    tree = [
        _span("cycle", 0.0, 10.0, None),
        _span("map", 1.0, 9.0, 0),
        _span("task", 2.0, 5.0, 1),
        _span("task", 5.0, 8.0, 1),
    ]
    own = spans.own_times(tree, spans.durations(tree))
    assert own == [2.0, 2.0, 3.0, 3.0]
    assert sum(own) == 10.0  # own times add up to the root


def test_calibration_samples_inside_a_span_are_not_its_time():
    tree = [_span("cycle", 0.0, 10.0, None), _span("task", 2.0, 5.0, 0)]
    marks = [_mark(3.0, 0.5, 3.5), _mark(7.0, 0.5, 7.5)]
    assert layers.net_seconds(tree, marks) == [9.0, 2.5]


def test_tracer_nests_spans_and_patches_instances_only():
    class Target:
        def work(self, value):
            return value + 1

    tracer = spans.Tracer()
    target, other = Target(), Target()
    tracer.open_cycle(3)
    tracer.patch(target, "work", "layer.work")
    assert target.work(1) == 2 and other.work(1) == 2
    tracer.close_cycle()
    assert [span["name"] for span in tracer.spans] == ["cycle", "layer.work"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["cycle"] == 3
    assert "work" not in vars(other)


def test_benchmark_json_agrees_with_the_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert declared["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == names.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == list(
        names.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(names.PER_LAYER)
    assert len({name for name, _, _ in names.PER_LAYER}) == len(names.PER_LAYER)
    assert all(len(why) <= 200 for why in names.WORKLOADS.values())


def test_every_traced_span_has_a_layer():
    assert set(layers.DESIGN_INTENT) == set(names.WORKLOADS)
    prefixes = {name.rsplit(".", 1)[0] for name, _, _ in names.PER_LAYER}
    for span_name in layers.LAYER_OF_SPAN:
        assert span_name == "cycle" or span_name.rsplit(".", 1)[0] in prefixes
