"""The per-name references ``tests/fl`` holds the state functions to.

Every public state function in ``src/`` packs what it is given into a
``FlatState`` and runs one whole-vector body.  These are the plain
``name -> ndarray`` loops that body must equal bit for bit (``1e-12`` for
the GEMV of ``weighted_average``): they take dicts, return dicts and are
reachable from nothing in ``src/``.  The drift oracle is the pairwise loop
the accumulator's per-arrival spread must equal (``1e-10``),
``folded_states`` reads the rows an accumulator has folded its states into
and ``has_spilled`` whether it has left them for its running sum.  The three
server rules the personalised rows used before they folded into the round
loop's accumulators (partition, merge, per-cluster) are what two rounds of
FedProx-LG and IFCA must equal bit for bit.
``ResidentModelClient`` is a client with a model of its own for life, which
a client computing on a lent model must equal bit for bit.  The quantize
oracles are the vectorised encode (``reduceat`` scales, full-length
``repeat``s, a boolean mask) and the per-tensor decode over int64 codes
that ``QuantizationCodec``'s in-place per-tensor passes must equal byte for
byte and bit for bit; the proximal oracle is FedProx's expression form.
``map_tasks`` drives a backend directly, as ``ExecutionBackend.map`` did
before every client pass went through the resilience manager.
``fedbuff_oracle`` is FedBuff's event loop as it ran beside the round loop,
with counts of its own: what the one loop must equal bit for bit under the
``fedbuff`` policy.  ``watch_updates`` weak-references every update an
algorithm receives, and ``count_alive`` counts the live ones, for the checks
that nothing of a round outlives ``run()`` or the next arrival.

Another ``oracles.py`` lives in ``tests/nn``; load this one by path
(``load_fl_oracles`` in ``test_state_door.py``), not with ``import oracles``.
"""

from __future__ import annotations

import copy
import gc
import heapq
import struct
import weakref
import zlib

import numpy as np

from repro.fl import FederatedClient, SchedulingSummary, TaskFailure
from repro.fl.algorithms.base import TrainingResult
from repro.fl.parameters import (
    FlatState,
    clone_state,
    filter_state,
    as_flat_state,
    flat_model_state,
    sorted_state_vector,
    state_distance,
    weighted_average,
)
from repro.fl.trainer import predict_dataset
from repro.fl.transport.codecs import Payload, packed_code_bytes
from repro.metrics.roc import roc_auc_score


def reference_weighted_average(states, weights):
    """The per-name stack/tensordot aggregation; may differ from the GEMV at the last ulp."""
    weights = np.asarray(list(weights), dtype=np.float64)
    normalized = weights / float(weights.sum())
    result = {}
    for name in states[0]:
        stacked = np.stack([state[name] for state in states], axis=0)
        result[name] = np.tensordot(normalized, stacked, axes=(0, 0))
    return result


def state_update_oracle(reference, new_state):
    return {name: new_state[name] - reference[name] for name in reference}


def apply_update_oracle(reference, update):
    return {name: reference[name] + update[name] for name in reference}


def state_norm_oracle(state):
    return float(np.sqrt(sum(float(np.sum(values**2)) for values in state.values())))


def clip_update_oracle(update, clip_norm):
    norm = state_norm_oracle(update)
    if norm <= clip_norm or norm == 0.0:
        return {name: np.array(values, copy=True) for name, values in update.items()}, norm
    scale = clip_norm / norm
    return {name: values * scale for name, values in update.items()}, norm


def add_gaussian_noise_oracle(state, sigma, rng):
    """One draw per tensor, in state order."""
    return {name: values + rng.normal(0.0, sigma, size=values.shape) for name, values in state.items()}


def alpha_portion_sync_oracle(client_states, client_weights, alpha):
    """``alpha * w_k + (1 - alpha) * (sum_j n_j w_j - n_k w_k) / (n - n_k)`` per name."""
    client_ids = list(client_states)
    total_weight = sum(float(client_weights[cid]) for cid in client_ids)
    reference = client_states[client_ids[0]]
    weighted_sum = {
        name: sum(float(client_weights[cid]) * client_states[cid][name] for cid in client_ids)
        for name in reference
    }
    result = {}
    for client_id in client_ids:
        own = client_states[client_id]
        weight = float(client_weights[client_id])
        remaining = total_weight - weight
        if remaining <= 0:
            result[client_id] = {name: np.array(values, copy=True) for name, values in own.items()}
            continue
        result[client_id] = {
            name: alpha * own[name]
            + (1.0 - alpha) * ((weighted_sum[name] - weight * own[name]) / remaining)
            for name in own
        }
    return result


def merge_partition_oracle(global_state, local_state, local_names):
    merged = {name: np.array(values, copy=True) for name, values in global_state.items()}
    for name in local_names:
        merged[name] = np.array(local_state[name], copy=True)
    return merged


def filter_state_oracle(state, names):
    return {name: np.array(state[name], copy=True) for name in names}


def aggregate_partition_oracle(states, weights, shared_names):
    """The sample-weighted average of the ``shared_names`` entries only (FedProx-LG)."""
    return weighted_average([filter_state(state, shared_names) for state in states], weights)


def merge_global_local_oracle(global_part, full_local_state):
    """One client's full state with the aggregated global part written over it."""
    merged = clone_state(full_local_state)
    for name, values in global_part.items():
        merged[name] = values.copy()
    return merged


def aggregate_clusters_oracle(cluster_states, member_states, member_weights):
    """Per-cluster averages (IFCA); a cluster with no members keeps its state."""
    return {
        cluster_id: weighted_average(member_states[cluster_id], member_weights[cluster_id])
        if member_states.get(cluster_id)
        else clone_state(previous)
        for cluster_id, previous in cluster_states.items()
    }


def flatten_state_oracle(state):
    """Every tensor raveled, in sorted name order (the wire order)."""
    return np.concatenate([np.asarray(state[name], dtype=np.float64).ravel() for name in sorted(state)])


def state_schema_oracle(state):
    return tuple((name, tuple(np.asarray(state[name]).shape)) for name in sorted(state))


def folded_states(accumulator):
    """Copies of the states a ``StreamingAccumulator`` holds in its matrix
    rows, in fold order, as flat states in the first fold's layout; ``None``
    once a spill or ``result()`` has handed the rows back."""
    if accumulator._matrix is None:
        return None if accumulator.count else []
    rows = accumulator._matrix[: accumulator.count]
    return [FlatState(accumulator._layout, row.copy()) for row in rows]


def has_spilled(accumulator):
    """Whether a streaming (or streaming-delta) accumulator has left its
    exact-parity rows for the running O(P) sum."""
    running = accumulator._sum if hasattr(accumulator, "_sum") else accumulator._delta_sum
    return running is not None


def pairwise_rms_distance_oracle(states):
    """The RMS of ``state_distance`` over every pair ``i < j``; ``0.0`` below two states.

    What ``StreamingAccumulator.spread`` folds per arrival as ``client_drift``.
    """
    squares = [
        state_distance(states[i], states[j]) ** 2
        for i in range(len(states))
        for j in range(i + 1, len(states))
    ]
    return float(np.sqrt(np.mean(squares))) if squares else 0.0


def _pack_codes_oracle(codes, num_bits):
    if codes.size == 0:
        return b""
    if num_bits == 8:
        return codes.astype(np.uint8).tobytes()
    if num_bits == 16:
        return codes.astype(">u2").tobytes()
    values = codes.astype(np.int64)
    shifts = np.arange(num_bits - 1, -1, -1, dtype=np.int64)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def _unpack_codes_oracle(data, num_bits, count):
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if num_bits == 8:
        return np.frombuffer(data, dtype=np.uint8, count=count).astype(np.int64)
    if num_bits == 16:
        return np.frombuffer(data, dtype=">u2", count=count).astype(np.int64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[: count * num_bits]
    weights = np.left_shift(1, np.arange(num_bits - 1, -1, -1, dtype=np.int64))
    return bits.reshape(count, num_bits).astype(np.int64) @ weights


def quantize_encode_oracle(codec, state):
    """``QuantizationCodec.encode`` as one vectorised pass over the sorted vector.

    Wrong for an empty tensor (``reduceat`` reads the next tensor's first
    value, or raises when it is the last).
    """
    state = as_flat_state(state)
    schema = state.layout.sorted_schema()
    flat = sorted_state_vector(state)
    sizes = np.asarray([int(np.prod(shape, dtype=np.int64)) if shape else 1 for _, shape in schema], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    lows = np.minimum.reduceat(flat, offsets)
    highs = np.maximum.reduceat(flat, offsets)
    spans = highs - lows
    span_per_value = np.repeat(spans, sizes)
    low_per_value = np.repeat(lows, sizes)
    nonzero = span_per_value != 0.0
    codes = np.zeros(flat.size, dtype=np.float64)
    codes[nonzero] = np.round((flat[nonzero] - low_per_value[nonzero]) / span_per_value[nonzero] * codec.levels)
    sections = []
    for index in range(len(schema)):
        sections.append(struct.pack("<dd", float(lows[index]), float(highs[index])))
        if spans[index] == 0.0:
            continue
        start = int(offsets[index])
        sections.append(_pack_codes_oracle(codes[start : start + int(sizes[index])], codec.num_bits))
    data = b"".join(sections)
    if codec.deflate:
        data = zlib.compress(data, 6)
    return Payload(codec=codec.name, data=data, schema=schema)


def quantize_decode_oracle(codec, payload):
    """``low + codes.astype(float64) / levels * span`` per tensor, as a name -> array dict."""
    data = zlib.decompress(payload.data) if codec.deflate else payload.data
    result = {}
    offset = 0
    for name, shape in payload.schema:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        low, high = struct.unpack_from("<dd", data, offset)
        offset += 16
        span = high - low
        if span == 0.0:
            result[name] = np.full(shape, low, dtype=np.float64)
            continue
        nbytes = packed_code_bytes(size, codec.num_bits)
        codes = _unpack_codes_oracle(data[offset : offset + nbytes], codec.num_bits, size)
        offset += nbytes
        result[name] = (low + codes.astype(np.float64) / codec.levels * span).reshape(shape)
    return result


def proximal_gradient_oracle(grad, data, reference, mu):
    """FedProx's term in expression form: ``grad + 2.0 * mu * (data - reference)``."""
    return grad + 2.0 * mu * (data - reference)


class ResidentModelClient(FederatedClient):
    """A client with a model of its own for life, as every client had before models were lent.

    The four uses keep the bodies they had then: a strict load into
    ``self._resident``, which nothing another client does can reach.  The
    resident starts as a copy of the template: every use loads over it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._resident = copy.deepcopy(self._template)

    def local_train(self, initial_state, steps=None, proximal_mu=None):
        steps = steps if steps is not None else self.config.local_steps
        mu = proximal_mu if proximal_mu is not None else self.config.proximal_mu
        self._resident.load_state_dict(initial_state)
        reference = clone_state(initial_state) if mu > 0 else None
        stats = self._trainer.train_steps(
            self._resident, self.train_dataset, steps=steps, proximal_mu=mu, proximal_reference=reference
        )
        return flat_model_state(self._resident), stats

    def fine_tune(self, initial_state, steps=None):
        steps = steps if steps is not None else self.config.finetune_steps
        self._resident.load_state_dict(initial_state)
        stats = self._trainer.train_steps(self._resident, self.train_dataset, steps=steps)
        return flat_model_state(self._resident), stats

    def training_loss(self, state, max_batches=None):
        max_batches = max_batches if max_batches is not None else self.config.ifca_eval_batches
        self._resident.load_state_dict(state)
        return self._trainer.evaluate_loss(self._resident, self.train_dataset, max_batches=max_batches)

    def evaluate_auc(self, state, dataset=None):
        target = dataset if dataset is not None else self.test_dataset
        self._resident.load_state_dict(state)
        scores, labels = predict_dataset(self._resident, target, batch_size=max(self.config.batch_size, 8))
        return roc_auc_score(labels, scores)


def map_tasks(backend, tasks):
    """Every task's update from ``backend``, in task order; a failed task fails the test."""
    updates = []
    for outcome in backend.imap_outcomes(tasks):
        if isinstance(outcome, TaskFailure):
            raise AssertionError(
                f"client {outcome.client_id} failed ({outcome.kind}): {outcome.error}\n"
                f"{outcome.traceback or ''}"
            )
        updates.append(outcome)
    return updates


def fedbuff_oracle(algorithm):
    """A fresh FedBuff run of ``algorithm`` (FedAvg or FedProx) on its own event loop.

    Returns ``(result, summary)``: the ``TrainingResult`` and the
    ``SchedulingSummary`` of the run, counted here, not by the ledger.  The
    loop keeps the first cohort's size training at once, draws each
    dispatch's latencies in cohort order after its client pass, pops
    arrivals in ``(arrival, dispatch order)`` order, aggregates whenever
    ``buffer_size`` updates are buffered, refills once every arrival of an
    instant is in, samples before it waits when nothing is in flight, and
    discards what is still in flight at the round budget as late.
    """
    scheduler = algorithm.scheduler
    config = algorithm.config
    result = TrainingResult(algorithm=algorithm.name)
    global_state = algorithm.initial_state()
    version = 0
    heap, in_flight = [], set()
    selected = folded = 0
    staleness_sum, staleness_max = 0.0, 0

    def dispatch(indices):
        nonlocal selected
        if not indices:
            return
        updates = algorithm.map_client_updates(
            global_state, steps=config.local_steps, proximal_mu=algorithm.proximal_mu(), cohort=indices
        )
        for index, update in zip(indices, updates):
            arrival = scheduler.clock.now + scheduler.draw_latency(index)
            heapq.heappush(heap, (arrival, selected, index, version, global_state, update))
            in_flight.add(index)
            selected += 1

    initial = scheduler.sample_clients(version, exclude=())
    while not initial:
        scheduler.wait_for_clients()
        initial = scheduler.sample_clients(version, exclude=())
    concurrency = len(initial)
    dispatch(initial)

    accumulator = algorithm.server.delta_accumulator()
    buffered, losses = [], {}
    while version < config.rounds:
        if not heap:
            refill = scheduler.sample_clients(version, exclude=in_flight, size=concurrency - len(in_flight))
            if not refill:
                scheduler.wait_for_clients()
                continue
            dispatch(refill)
            continue
        batch_time = heap[0][0]
        scheduler.clock.advance_to(batch_time)
        while heap and heap[0][0] == batch_time and version < config.rounds:
            _, _, index, dispatched_in, dispatch_state, update = heapq.heappop(heap)
            in_flight.discard(index)
            staleness = version - dispatched_in
            weight = float(algorithm.clients[index].num_samples) * scheduler.staleness_weight(staleness)
            buffered.append(staleness)
            losses[update.client_id] = update.stats.mean_loss
            folded += 1
            staleness_sum += float(staleness)
            staleness_max = max(staleness_max, staleness)
            accumulator.fold(
                update.state,
                dispatch_state,
                weight,
                fresh=staleness == 0 and dispatch_state is global_state,
            )
            algorithm._release_client(index)
            if len(buffered) >= scheduler.buffer_size:
                global_state = accumulator.result(global_state)
                accumulator = algorithm.server.delta_accumulator()
                extra = {
                    "buffered_updates": len(buffered),
                    "mean_staleness": float(sum(buffered) / len(buffered)),
                    "max_staleness": int(max(buffered)),
                    "simulated_time_s": scheduler.clock.now,
                }
                result.history.append(algorithm._round_record(version, losses, extra=extra))
                version += 1
                buffered, losses = [], {}
        if version >= config.rounds:
            break
        dispatch(scheduler.sample_clients(version, exclude=in_flight, size=concurrency - len(in_flight)))
    result.global_state = global_state

    summary = SchedulingSummary(
        policy=scheduler.policy,
        sampler=scheduler.sampler.describe(),
        availability=scheduler.availability.describe(),
        straggler=scheduler.latency.describe(),
        rounds=version,
        total_selected=selected,
        total_arrived=folded,
        total_dropped=len(heap),
        simulated_seconds=scheduler.clock.now,
        buffered_aggregations=version,
        updates_buffered=folded,
        mean_staleness=staleness_sum / folded if folded else 0.0,
        max_staleness=staleness_max,
    )
    return result, summary


def count_alive(refs):
    """How many of the weak references ``refs`` are alive, collecting garbage first only if one seems to be."""
    if any(ref() is not None for ref in refs):
        gc.collect()
    return sum(ref() is not None for ref in refs)


def watch_updates(algorithm, alive=None):
    """A list that gets a weak reference to each arriving update's state vector.

    Reaches the arrivals through ``map_client_updates`` on the instance, as
    ``bench/workload.py`` does; a pass without ``on_arrival`` is watched too.
    With ``alive`` given, each arrival first appends to it how many of its
    pass's earlier updates are still alive.
    """
    watched = []
    map_client_updates = algorithm.map_client_updates

    def watched_map(*args, on_arrival=None, **kwargs):
        start = len(watched)

        def arrive(update):
            if alive is not None:
                alive.append(count_alive(watched[start:]))
            watched.append(weakref.ref(update.state.vector))
            if on_arrival is not None:
                on_arrival(update)

        return map_client_updates(*args, on_arrival=arrive, **kwargs)

    algorithm.map_client_updates = watched_map
    return watched
