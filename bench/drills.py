"""Layer drills of the traced run.

Where no boundary of an object the benchmark constructs reaches a layer,
the benchmark drives that layer's public functions itself, on the
workload's own shapes, and times them.  Every drill is bracketed by
calibration samples; its times are seconds per call at the reference
machine speed.  Results land in ``run.notes["drill"]`` under the per-layer
metric names (see bench/names.py).
"""

from __future__ import annotations

import pickle
import shutil
import sys
import tempfile
import time
import tracemalloc
from typing import Callable, Dict, List

import numpy as np

from bench.spans import Tracer, durations

#: Measured repetitions of each drill (after one warm-up repetition).
REPEATS = 6


def _calibrated(clock, drill: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    """Run ``drill``; rescale its ``*_s`` results by the bracketing samples."""
    before = clock.now()
    values = drill()
    slow = 0.5 * (before + clock.now())
    return {name: value / slow if name.endswith("_s") else value for name, value in values.items()}


def _mean_seconds(func: Callable[[], object], repeats: int = REPEATS) -> float:
    func()
    start = time.perf_counter()
    for _ in range(repeats):
        func()
    return (time.perf_counter() - start) / repeats


def training_step(clock, model_name: str, dataset, config, seed: int) -> Dict[str, float]:
    """One local update step, split by phase and by leaf-module class."""
    from repro.data.loader import DataLoader, infinite_batches
    from repro.experiments.runner import ModelBuilder
    from repro.nn.losses import make_loss
    from repro.nn.optim import make_optimizer

    builder = ModelBuilder(model_name, dataset.num_channels)
    model = builder(seed)
    model.set_compute_dtype(config.compute_dtype)
    model.train()
    loader = DataLoader(dataset, config.batch_size, rng=np.random.default_rng(seed), dtype=model.compute_dtype)
    batches = infinite_batches(loader)
    loss = make_loss(config.loss)
    optimizer = make_optimizer(
        config.optimizer, model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    tracer = Tracer()
    leaves = [module for _, module in model.named_modules() if not list(module.children())]

    def step(spans: bool) -> None:
        if not spans:
            features, labels = next(batches)
            optimizer.zero_grad()
            loss.forward(model.forward(features), labels)
            model.backward(loss.backward())
            optimizer.step()
            return
        index = tracer.begin("data.batch")
        features, labels = next(batches)
        tracer.end(index)
        optimizer.zero_grad()
        index = tracer.begin("nn.forward")
        predictions = model.forward(features)
        tracer.end(index)
        index = tracer.begin("nn.loss")
        loss.forward(predictions, labels)
        gradient = loss.backward()
        tracer.end(index)
        index = tracer.begin("nn.backward")
        model.backward(gradient)
        tracer.end(index)
        index = tracer.begin("nn.optim")
        optimizer.step()
        tracer.end(index)

    for _ in range(2):
        step(False)

    # Exact counts first, on the unwrapped model: Python-level and C-level
    # calls of one epoch (two steps), and the peak transient allocation.
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        step(False)
        step(False)
    finally:
        sys.setprofile(None)
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(2):
            tracemalloc.reset_peak()
            current, _ = tracemalloc.get_traced_memory()
            step(False)
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
    finally:
        tracemalloc.stop()

    def timed() -> Dict[str, float]:
        start = time.perf_counter()
        for _ in range(REPEATS):
            step(False)
        step_s = (time.perf_counter() - start) / REPEATS
        for leaf in leaves:
            kind = type(leaf).__name__.lower()
            tracer.patch(leaf, "forward", f"nn.{kind}.forward")
            tracer.patch(leaf, "backward", f"nn.{kind}.backward")
        for _ in range(REPEATS):
            step(True)
        totals: Dict[str, float] = {}
        for span, duration in zip(tracer.spans, durations(tracer.spans)):
            name = str(span["name"])
            totals[name] = totals.get(name, 0.0) + duration / REPEATS
        result = {
            "models.build_s": _mean_seconds(lambda: builder(seed), repeats=3),
            "nn.step_s": step_s,
            "nn.forward_s": totals["nn.forward"],
            "nn.loss_s": totals["nn.loss"],
            "nn.backward_s": totals["nn.backward"],
            "nn.optim_s": totals["nn.optim"],
            "data.batch_s": totals["data.batch"],
        }
        for name, value in totals.items():
            if name.count(".") == 2:
                result[f"{name}_s"] = value
        return result

    values = _calibrated(clock, timed)
    values.update(
        {
            "models.params": float(model.num_parameters()),
            "nn.alloc_kb_per_step": float(np.mean(peaks)) / 1024.0,
            "nn.pycalls_per_step": calls[0] / 2.0,
        }
    )
    return values


def parameter_ops(clock, global_state, clients: int) -> Dict[str, float]:
    """``weighted_average`` over K workload-sized states, and ``state_digest``."""
    from repro.fl.parameters import clone_state, state_digest, weighted_average

    states = [clone_state(global_state) for _ in range(clients)]
    weights = [float(index + 1) for index in range(clients)]
    return _calibrated(
        clock,
        lambda: {
            "fl.parameters.average_s": _mean_seconds(lambda: weighted_average(states, weights)),
            "fl.parameters.digest_s": _mean_seconds(lambda: state_digest(global_state)),
        },
    )


def auc(clock, dataset) -> Dict[str, float]:
    """``roc_auc_score`` on one client's test labels."""
    from repro.metrics.roc import roc_auc_score

    labels = dataset.packed_arrays()[1].reshape(-1)
    scores = np.random.default_rng(0).random(labels.size)
    return _calibrated(clock, lambda: {"metrics.auc_s": _mean_seconds(lambda: roc_auc_score(labels, scores))})


def messages(clock, global_state, rng_state, out_dir) -> Dict[str, float]:
    """The wire path of one task and one update, on the workload's real envelopes."""
    from repro.fl.net import FrameReader, MessageJournal, encode_frame
    from repro.fl.net.messages import TaskEnvelope, UpdateEnvelope, decode_message, encode_message
    from repro.fl.trainer import StepStatistics

    blob = pickle.dumps(global_state, protocol=pickle.HIGHEST_PROTOCOL)
    task = TaskEnvelope(1, 1, "train", blob, False, steps=1, proximal_mu=0.0, rng_state=rng_state)
    update = UpdateEnvelope(1, 1, state=global_state, stats=StepStatistics(1, 0.5, 0.5), rng_state=rng_state)
    chunk = 1 << 16  # the socket read size of both endpoints

    def encode(message) -> bytes:
        frame_type, body = encode_message(message)
        return encode_frame(frame_type, body)

    def decode(frame: bytes, unpickle_blob: bool):
        reader = FrameReader()
        frames: List = []
        for offset in range(0, len(frame), chunk):
            frames.extend(reader.feed(frame[offset : offset + chunk]))
        message = decode_message(*frames[0])
        if unpickle_blob:
            pickle.loads(message.blob)
        return message

    task_frame, update_frame = encode(task), encode(update)
    body = encode_message(task)[1]
    journal_dir = tempfile.mkdtemp(prefix="drill_journal_", dir=out_dir)
    try:
        with MessageJournal(journal_dir) as journal:
            sequence = iter(range(1, 1000))
            values = _calibrated(
                clock,
                lambda: {
                    "fl.net.encode_task_s": _mean_seconds(lambda: encode(task)),
                    "fl.net.decode_task_s": _mean_seconds(lambda: decode(task_frame, True)),
                    "fl.net.encode_update_s": _mean_seconds(lambda: encode(update)),
                    "fl.net.decode_update_s": _mean_seconds(lambda: decode(update_frame, False)),
                    "fl.net.journal_append_s": _mean_seconds(
                        lambda: journal.record_task(1, next(sequence), body)
                    ),
                },
            )
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    values["fl.net.frame_mb"] = len(task_frame) / 1e6
    return values


def corpus(clock, config) -> Dict[str, float]:
    """The corpus build of one pipeline cycle, split by public function."""
    from repro.data.clients import CorpusBuilder
    from repro.data.dataset import PlacementSample, RoutabilityDataset
    from repro.eda.benchmarks import generate_design
    from repro.eda.drc import DrcHotspotLabeler
    from repro.eda.maps import all_maps
    from repro.eda.placement import sweep_placements
    from repro.features.extraction import FeatureExtractor

    # The designs one cycle builds: record what build_client asks for.
    requests: List[tuple] = []
    recorder = CorpusBuilder(config.corpus)
    recorder.build_design_samples = lambda *args: requests.append(args) or []
    for spec in config.client_specs:
        recorder.build_client(spec)
    extractor = FeatureExtractor(config.corpus.features, config.corpus.normalization)
    labeler = DrcHotspotLabeler(label_seed=config.corpus.label_seed)
    totals = {"eda.design_s": 0.0, "eda.place_s": 0.0, "eda.maps_s": 0.0, "eda.label_s": 0.0,
              "features.extract_s": 0.0, "data.pack_s": 0.0}
    samples: List = []

    def clocked(key: str, func: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        totals[key] += time.perf_counter() - start
        return result

    def build() -> Dict[str, float]:
        for suite, design_name, design_seed, count, sweep_seed in requests:
            design = clocked("eda.design_s", generate_design, suite, design_name, design_seed)
            placements = clocked(
                "eda.place_s", sweep_placements, design, count=count, grid_width=config.corpus.grid_width,
                grid_height=config.corpus.grid_height, base_seed=sweep_seed,
            )
            for index, placement in enumerate(placements):
                analysis = clocked("eda.maps_s", all_maps, placement)
                features = clocked("features.extract_s", extractor.extract, placement, analysis)
                drc = clocked("eda.label_s", labeler.label, placement, precomputed_maps=analysis)
                samples.append(PlacementSample(features, drc.hotspots, design_name, suite, index))
        clocked("data.pack_s", RoutabilityDataset(samples).packed_arrays)
        return dict(totals)

    values = _calibrated(clock, build)
    values["eda.placements"] = float(len(samples))
    values["features.samples"] = float(len(samples))
    return values


def federated(run, spec, clients, config, global_state, out_dir) -> None:
    """Drills of a federated workload (``out_dir`` takes the drill's journal)."""
    clock = run.clock
    drill = training_step(clock, spec.model, clients[0].train_dataset, config, run.args.seed)
    drill.update(parameter_ops(clock, global_state, len(clients)))
    drill.update(auc(clock, clients[0].test_dataset))
    if spec.backend == "wire":
        drill.update(messages(clock, global_state, clients[0].rng_state, out_dir))
    run.notes["drill"] = drill


def pipeline(run, config, data) -> None:
    """Drills of the pipeline workload (one extra corpus build); ``data`` is one client's."""
    from repro.experiments import ExperimentRunner
    from repro.fl.parameters import flat_model_state

    clock = run.clock
    drill = corpus(clock, config)
    drill.update(training_step(clock, config.model, data.train, config.fl, run.args.seed))
    model = ExperimentRunner(config).model_factory()()
    drill.update(parameter_ops(clock, flat_model_state(model), len(config.client_specs)))
    drill.update(auc(clock, data.test))
    run.notes["drill"] = drill
