"""Invariants of the per-thread scratch pool (see ``repro.nn.workspace``).

Workspace buffers are lent: a layer holds them between two release points
and ``release_workspaces()`` parks them in the calling thread's free pool
for whichever model computes next.  These tests pin what that must never
change — values, ownership — and what it must achieve: one client's worth
of scratch, the optimizer's state included, however many clients train.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from oracles import on_cold_pool

from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.fl import (
    FederatedClient,
    FLConfig,
    SeededModelFactory,
    SerialBackend,
    ThreadPoolBackend,
    create_algorithm,
)
from repro.fl.client import _LENT
from repro.fl.parameters import flat_model_state, state_digest
from repro.models import FLNet, RouteNet
from repro.nn import Conv2d, ConvTranspose2d, Parameter
from repro.nn.optim import BLOCK, SGD, Adam
from repro.nn.workspace import _POOL, pool_nbytes, release_scratch

CHANNELS = 3
GRID = 8
CONFIG = FLConfig(rounds=1, local_steps=2, batch_size=2, learning_rate=3e-3)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class Builder:
    def __call__(self, seed: int) -> FLNet:
        return FLNet(CHANNELS, hidden_filters=4, kernel_size=5, seed=seed)


def dataset(seed: int, samples: int = 4) -> RoutabilityDataset:
    draw = rng(seed)
    return RoutabilityDataset(
        [
            PlacementSample(
                draw.normal(size=(CHANNELS, GRID, GRID)),
                (draw.random((GRID, GRID)) < 0.2).astype(np.float64),
                f"d{seed}",
                "synthetic",
                index,
            )
            for index in range(samples)
        ],
        name=f"pool_{seed}",
    )


def roster(count: int):
    factory = SeededModelFactory(Builder(), base_seed=0)
    return [
        FederatedClient(client_id, dataset(client_id), dataset(100 + client_id, 2), factory, CONFIG)
        for client_id in range(1, count + 1)
    ]


def one_round(clients, backend):
    algorithm = create_algorithm(
        "fedavg", clients, SeededModelFactory(Builder(), base_seed=0), CONFIG, backend=backend
    )
    try:
        return algorithm.run()
    finally:
        backend.close()


def held_nbytes(clients) -> int:
    """Scratch bytes (not in any pool) held by the clients' templates and by
    the copies of them lent on the calling thread."""
    templates = {client._template for client in clients}
    lent = [_LENT.models.get(template) for template in templates]
    models = [*templates, *(model for model in lent if model is not None)]
    return sum(
        module._ws.nbytes for model in models for _, module in model.named_modules() if hasattr(module, "_ws")
    )


def pooled_ids() -> set:
    return {id(buffer) for free in _POOL.free.values() for buffer in free}


@pytest.fixture(autouse=True)
def empty_pool():
    """Each test starts (and leaves the main thread) with an empty pool."""
    _POOL.free.clear()
    yield
    _POOL.free.clear()


class TestPoolBound:
    def test_nine_serial_clients_hold_one_clients_scratch(self, monkeypatch):
        released = []  # per optimizer release: the lent buffers' ids and bytes

        def recording_release(owner, pool=True):
            released.append({id(buffer): buffer.nbytes for buffer in owner._ws._buffers.values()})
            release_scratch(owner, pool)

        monkeypatch.setattr("repro.fl.trainer.release_scratch", recording_release)
        one_round(roster(1), SerialBackend())
        one_set = pool_nbytes()
        assert one_set > 0
        # The optimizer's state is in that set: Adam's two moments and the work pair.
        (state,) = released
        run = Builder()(0).flat.grad
        assert sum(state.values()) == 2 * run.nbytes + 2 * min(run.size, BLOCK) * run.itemsize
        assert set(state) <= pooled_ids()
        _POOL.free.clear()
        released.clear()

        clients = roster(9)
        one_round(clients, SerialBackend())
        assert len(released) == 9
        assert held_nbytes(clients) == 0
        assert set().union(*released) <= pooled_ids()
        assert pool_nbytes() == one_set

    def test_evaluation_releases_too(self):
        (client,) = roster(1)
        state = flat_model_state(Builder()(0))
        client.evaluate_auc(state)
        client.training_loss(state)
        assert held_nbytes([client]) == 0
        assert pool_nbytes() > 0


class TestRecycledValues:
    def test_padded_buffer_recycled_across_borders(self):
        """Same padded shape, different border: a recycled buffer is re-zeroed."""
        n, c = 2, 3
        wide = dict(kernel_size=9, padding=4)  # 16x16 -> padded (n, c, 24, 24)
        narrow = dict(kernel_size=5, padding=2)  # 20x20 -> padded (n, c, 24, 24)
        cases = [(wide, 16, 1), (narrow, 20, 2), (wide, 16, 3)]
        padded_shape = (n, c, 24, 24)
        lent = set()
        for geometry, size, seed in cases:
            x = rng(seed).normal(size=(n, c, size, size))
            grad = rng(10 + seed).normal(size=(n, c, size, size))
            pooled = Conv2d(c, c, rng=rng(20 + seed), **geometry)
            cold = Conv2d(c, c, rng=rng(20 + seed), **geometry)
            out = pooled.forward(x)
            if lent:  # the previous conv's buffer, stale interior and all
                assert id(pooled._ws.get("padded", padded_shape)) in lent
            grad_in = pooled.backward(grad)
            out_ref, grad_ref = on_cold_pool(lambda: (cold.forward(x), cold.backward(grad)))
            assert not {id(buffer) for buffer in cold._ws._buffers.values()} & lent
            np.testing.assert_array_equal(out, out_ref)
            np.testing.assert_array_equal(grad_in, grad_ref)
            np.testing.assert_array_equal(pooled.weight.grad, cold.weight.grad)
            pooled.release_workspaces()
            lent = pooled_ids()

    @pytest.mark.parametrize(
        "build",
        [lambda p: Adam(p, lr=1e-2, weight_decay=1e-5), lambda p: SGD(p, lr=1e-2, momentum=0.9)],
        ids=["adam", "sgd"],
    )
    def test_optimizer_state_from_a_dirty_pool_trains_like_a_cold_one(self, build):
        """Moments recycled from another run are re-zeroed: the same steps, bit for bit."""
        shapes = [(4, CHANNELS, 5, 5), (4,), (1, 4, 5, 5), (1,)]

        def run(seed: int):
            draw = rng(seed)
            params = [Parameter(draw.normal(size=shape)) for shape in shapes]
            optimizer = build(params)
            for _ in range(3):
                for param in params:
                    param.grad[...] = draw.normal(size=param.data.shape)
                optimizer.step()
            return optimizer, [param.data for param in params]

        dirty, _ = run(50)
        assert all(np.any(buffer) for buffer in dirty._ws._buffers.values())
        release_scratch(dirty)
        lent = pooled_ids()
        warm, warm_params = run(51)
        assert {id(buffer) for buffer in warm._ws._buffers.values()} == lent  # all recycled
        cold, cold_params = on_cold_pool(lambda: run(51))
        assert not {id(buffer) for buffer in cold._ws._buffers.values()} & lent
        for mine, theirs in zip(warm_params, cold_params, strict=True):
            assert mine.tobytes() == theirs.tobytes()

    def test_one_filter_input_gradient_is_not_the_scratch_it_was_folded_in(self):
        """A caller may keep a returned gradient across the layer's next step."""
        x = rng(41).normal(size=(2, CHANNELS, GRID, GRID))
        first_grad, second_grad = (rng(seed).normal(size=(2, 1, GRID, GRID)) for seed in (42, 43))
        warm = Conv2d(CHANNELS, 1, 5, padding=2, rng=rng(40))
        cold = Conv2d(CHANNELS, 1, 5, padding=2, rng=rng(40))
        warm.forward(x)
        kept = warm.backward(first_grad)
        warm.forward(x)
        warm.backward(second_grad)  # same accumulator, new values
        reference = on_cold_pool(lambda: (cold.forward(x), cold.backward(first_grad))[1])
        np.testing.assert_array_equal(kept, reference)

    def test_backward_after_release_raises_then_recovers(self):
        x = rng(1).normal(size=(2, CHANNELS, GRID, GRID))
        grad = rng(2).normal(size=(2, 1, GRID, GRID))
        released, kept = Builder()(7), Builder()(7)
        for model in (released, kept):
            model.forward(x)
            model.backward(grad)
            model.zero_grad()
        released.release_workspaces()
        assert released.output_conv._cache is None
        with pytest.raises(RuntimeError, match="before forward"):
            released.backward(grad)
        out, out_kept = released.forward(x), kept.forward(x)
        released.backward(grad)
        kept.backward(grad)
        np.testing.assert_array_equal(out, out_kept)
        for mine, theirs in zip(released.parameters(), kept.parameters()):
            np.testing.assert_array_equal(mine.grad, theirs.grad)

    def test_dtype_switch_drops_instead_of_pooling(self):
        model = Builder()(3)
        model.forward(rng(4).normal(size=(2, CHANNELS, GRID, GRID)))
        model.set_compute_dtype("float32")
        assert pool_nbytes() == 0
        assert model.input_conv._cache is None
        assert len(model.input_conv._ws) == 0


class TestScratchShapes:
    """What a step holds: no second buffer the size of a layer's columns."""

    def test_routenet_step_holds_one_column_buffer_per_conv(self):
        model = RouteNet(CHANNELS, base_filters=8, seed=5)
        x = rng(6).normal(size=(2, CHANNELS, GRID, GRID))
        upsample = model.upsample[0]
        model.forward(x)
        # The transposed conv's forward folds taps into image-sized scratch.
        h, w = GRID // 2, GRID // 2
        kh, kw = upsample.kernel_size
        transposed_columns = (upsample.out_channels * kh * kw, h * w)
        assert transposed_columns not in {shape[-2:] for _, shape, _ in upsample._ws._buffers}
        model.backward(np.ones((2, 1, GRID, GRID)))
        convs = [layer for _, layer in model.named_modules() if isinstance(layer, Conv2d)]
        assert len(convs) == 7
        for conv in convs:
            shapes = {tag: shape for tag, shape, _ in conv._ws._buffers}
            assert [tag for tag, shape in shapes.items() if shape == shapes["cols"]] == ["cols"]
        # Backward, one image's columns of the output gradient are the only ones.
        held = [(tag, shape) for tag, shape, _ in upsample._ws._buffers if shape[-2:] == transposed_columns]
        assert held == [("grad_cols", transposed_columns)]

    @pytest.mark.parametrize(
        "build", [lambda: RouteNet(CHANNELS, base_filters=8, seed=5), lambda: Builder()(5)],
        ids=["routenet", "flnet"],
    )
    def test_columns_do_not_grow_with_the_batch(self, build):
        """Trained at batch 4, then predicting at 2 and at a partial batch of 3:
        each conv holds one image's columns, and the pool gains no more."""
        model = build()
        convs = [layer for _, layer in model.named_modules() if isinstance(layer, (Conv2d, ConvTranspose2d))]
        x = rng(6).normal(size=(4, CHANNELS, GRID, GRID))
        model.forward(x)
        model.backward(np.ones((4, 1, GRID, GRID)))
        columns = {}  # one image's (C * kh * kw, out_h * out_w), per conv
        for conv in convs:
            _, channels, h, w = conv._cache[1]
            kh, kw = conv.kernel_size
            if isinstance(conv, Conv2d):
                columns[conv] = (channels * kh * kw, int(np.prod(conv.output_shape(h, w))))
            else:  # backward's columns of the output gradient, one per input pixel
                columns[conv] = (conv.out_channels * kh * kw, h * w)

        def held_columns(conv):
            return [shape for _, shape, _ in conv._ws._buffers if shape[-2:] == columns[conv]]

        def pooled_columns():
            shapes = set(columns.values())
            return sorted(
                (shape, sum(buffer.nbytes for buffer in free))
                for (shape, _), free in _POOL.free.items()
                if shape[-2:] in shapes
            )

        assert all(held_columns(conv) == [columns[conv]] for conv in convs)
        model.release_workspaces()
        trained = pooled_columns()
        assert sorted(shape for shape, _ in trained) == sorted(set(columns.values()))
        for batch in (2, 3):
            model.predict(x[:batch])
            for conv in convs:  # a transposed conv's forward forms no columns
                assert held_columns(conv) == ([columns[conv]] if isinstance(conv, Conv2d) else [])
            model.release_workspaces()
        assert pooled_columns() == trained


class TestThreads:
    def test_no_buffer_is_handed_to_two_threads(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # the backend clamps to cores
        serial = one_round(roster(2), SerialBackend())
        _POOL.free.clear()

        clients = roster(2)
        together = threading.Barrier(2, timeout=30)
        for client in clients:
            # Both tasks in flight at once: each must run on its own thread.
            def local_train(*args, _train=client.local_train, **kwargs):
                together.wait()
                return _train(*args, **kwargs)

            client.local_train = local_train

        def probe():
            together.wait()
            return threading.get_ident(), (pooled_ids(), held_nbytes(clients))

        backend = ThreadPoolBackend(workers=2)
        algorithm = create_algorithm(
            "fedavg", clients, SeededModelFactory(Builder(), base_seed=0), CONFIG, backend=backend
        )
        try:
            threaded = algorithm.run()
            futures = [backend._executor.submit(probe) for _ in range(2)]
            probed = dict(future.result(timeout=30) for future in futures)
        finally:
            backend.close()
        assert len(probed) == 2 and threading.get_ident() not in probed
        (first, first_held), (second, second_held) = probed.values()
        assert first and second
        assert not first & second
        assert not (first | second) & pooled_ids()  # nor to the coordinating thread
        assert first_held == second_held == held_nbytes(clients) == 0
        assert state_digest(threaded.global_state) == state_digest(serial.global_state)

    def test_more_threads_than_cores_keep_values_and_buffers_apart(self):
        """Stress: threads that acquire and release all the time never share a buffer."""
        workers, rounds = 4, 25
        inputs = [rng(30 + index).normal(size=(2, CHANNELS, GRID, GRID)) for index in range(workers)]

        def run(index: int, releasing: bool):
            model = Builder()(index)
            for _ in range(rounds):
                out = model.forward(inputs[index])
                model.backward(out)
                if releasing:
                    model.release_workspaces()
            return out, [param.grad for param in model.parameters()]

        expected = [run(index, releasing=False) for index in range(workers)]
        _POOL.free.clear()
        results, pools = {}, {}
        all_recorded = threading.Barrier(workers, timeout=60)

        def work(index: int) -> None:
            results[index] = run(index, releasing=True)
            pools[index] = pooled_ids()
            all_recorded.wait()  # a dead thread's buffers are freed and their ids reused

        threads = [threading.Thread(target=work, args=(index,)) for index in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index in range(workers):
            np.testing.assert_array_equal(results[index][0], expected[index][0])
            for got, want in zip(results[index][1], expected[index][1], strict=True):
                np.testing.assert_array_equal(got, want)
        assert all(pools[index] for index in range(workers))
        assert sum(len(ids) for ids in pools.values()) == len(set().union(*pools.values()))
        assert pool_nbytes() == 0  # nothing leaked into the coordinating thread's pool

