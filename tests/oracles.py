"""Reference implementations the product's engines are checked against.

``src/`` has one cache-measurement engine (:mod:`repro.cache.stackdist`),
one ensemble trainer (:mod:`repro.ann.batched`), one log-bucket
histogram, one power-gate ladder walk and one chunk interleaver for
traces.  Each is an optimised
rewrite that promises bit-identical results to the straightforward
code kept here, except the histogram's quantiles, which promise a
stated error bound:

* **Cache oracle** — :func:`simulate_trace_per_config` replays a trace
  access by access, once per configuration;
  :func:`characterize_per_config` builds a full
  :class:`~repro.characterization.explorer.BenchmarkCharacterization`
  from it.  :func:`deep_depths` walks a list-based LRU stack over the
  runs of one set-ordered partition: the depths that
  ``repro.cache.stackdist._run_depths`` measures level by level.
* **Trace oracle** — :func:`interleave_chunks_loop` interleaves address
  streams chunk by chunk in a Python loop: the order that
  :func:`repro.workloads.tracegen.interleave_chunks` computes in closed
  form.
* **Training oracle** — :func:`train` fits one MLP at a time with
  per-layer backpropagation (:func:`dense_forward` /
  :func:`dense_backward`), :class:`MSELoss` and :class:`Adam`;
  :func:`fit_sequential` and :func:`fit_predictor_sequential` run it
  member by member over a :class:`~repro.ann.bagging.BaggedRegressor`
  or an :class:`~repro.core.predictor.AnnPredictor`.
* **Streaming-statistics oracle** — :class:`SampleOracle` keeps every
  observation: count/sum/min/max as
  :class:`~repro.obs.metrics.Histogram` folds them, and the exact
  order statistics its log-bucket quantiles approximate.
* **Power-gate oracle** — :func:`degradation_candidates` enumerates a
  degradation ladder unsorted, with the per-dispatch arithmetic of
  :func:`~repro.energy.scaling.scaled_charges` written out inline, and
  :func:`pick_degraded_scan` scans it for the least-degraded option a
  freshly summed pool affords: the search
  :func:`repro.power.budget.pick_degraded` makes as a first-hit walk
  over a ladder sorted once.

An oracle must never call the engine it checks:
``tests/test_oracles.py`` fails if this module imports any of them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.bagging import BaggedRegressor, bootstrap_indices
from repro.ann.layers import Dense
from repro.ann.network import MLP
from repro.ann.training import TrainingConfig, TrainingHistory
from repro.cache.config import BASE_CONFIG, CacheConfig
from repro.cache.stats import CacheStats
from repro.characterization.dataset import Dataset
from repro.characterization.explorer import (
    BenchmarkCharacterization,
    ConfigResult,
)
from repro.core.predictor import AnnPredictor
from repro.energy.model import EnergyModel
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.counters import collect_counters

#: Per-layer ``(grad_weights, grad_bias)`` pairs, input-to-output order.
Gradients = List[Tuple[np.ndarray, np.ndarray]]


def simulate_trace_per_config(
    addresses: Sequence[int],
    config: CacheConfig,
    writes: Optional[Sequence[bool]] = None,
) -> CacheStats:
    """The seed fast path: one per-access Python replay per configuration.

    Superseded by the stack-distance engine (one pass per set partition
    instead of one per configuration) but kept as an independent
    implementation for property tests and as the old-engine baseline of
    ``benchmarks/test_bench_characterization_speed.py``.
    """
    if isinstance(addresses, np.ndarray):
        line_addrs = (addresses.astype(np.int64) // config.line_b).tolist()
    else:
        line_b = config.line_b
        line_addrs = [int(a) // line_b for a in addresses]

    if writes is None:
        write_list: Optional[List[bool]] = None
    elif isinstance(writes, np.ndarray):
        write_list = writes.astype(bool).tolist()
    else:
        write_list = [bool(w) for w in writes]
    if write_list is not None and len(write_list) != len(line_addrs):
        raise ValueError("writes mask length must match addresses length")

    num_sets = config.num_sets
    assoc = config.assoc
    # Per-set MRU-first list of resident line addresses; assoc <= 4 in the
    # design space so membership tests on these lists are effectively O(1).
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    seen: set = set()

    hits = 0
    misses = 0
    write_hits = 0
    write_misses = 0
    writes_total = 0
    compulsory = 0
    evictions = 0
    fills = 0

    for i, la in enumerate(line_addrs):
        mru = sets[la % num_sets]
        is_write = write_list[i] if write_list is not None else False
        if is_write:
            writes_total += 1
        if la in mru:
            hits += 1
            if is_write:
                write_hits += 1
            if mru[0] != la:
                mru.remove(la)
                mru.insert(0, la)
        else:
            misses += 1
            if is_write:
                write_misses += 1
            if la not in seen:
                compulsory += 1
                seen.add(la)
            mru.insert(0, la)
            fills += 1
            if len(mru) > assoc:
                mru.pop()
                evictions += 1

    stats = CacheStats(
        accesses=len(line_addrs),
        hits=hits,
        misses=misses,
        read_accesses=len(line_addrs) - writes_total,
        write_accesses=writes_total,
        read_misses=misses - write_misses,
        write_misses=write_misses,
        evictions=evictions,
        writebacks=0,
        fills=fills,
        compulsory_misses=compulsory,
    )
    stats.validate()
    return stats


def characterize_per_config(
    spec: BenchmarkSpec,
    configs: Sequence[CacheConfig],
    energy_model: Optional[EnergyModel] = None,
    seed: int = 0,
) -> BenchmarkCharacterization:
    """:func:`~repro.characterization.explorer.characterize_benchmark`
    with every configuration (and the base configuration the counters
    need) measured by :func:`simulate_trace_per_config`."""
    model = energy_model if energy_model is not None else EnergyModel()
    trace = spec.generate_trace(seed=seed)
    results = {}
    for config in configs:
        stats = simulate_trace_per_config(
            trace.addresses, config, writes=trace.writes
        )
        estimate = model.estimate(config, spec.instructions, stats)
        results[config] = ConfigResult(
            config=config, stats=stats, estimate=estimate
        )
    if BASE_CONFIG in results:
        base_stats = results[BASE_CONFIG].stats
        base_cycles = results[BASE_CONFIG].total_cycles
    else:
        base_stats = simulate_trace_per_config(
            trace.addresses, BASE_CONFIG, writes=trace.writes
        )
        base_cycles = model.estimate(
            BASE_CONFIG, spec.instructions, base_stats
        ).total_cycles
    counters = collect_counters(spec, trace, base_stats, base_cycles)
    return BenchmarkCharacterization(
        benchmark=spec.name, counters=counters, results=results
    )


def deep_depths(runs: np.ndarray, max_assoc: int) -> np.ndarray:
    """Stack depth (1..max_assoc - 1, or max_assoc for a miss) of every run.

    ``runs`` are line addresses with no two adjacent ones equal, so the
    most-recently-used slot is never searched.
    """
    depths = [max_assoc] * runs.size
    stack: List[int] = []  # MRU first, truncated at max_assoc lines
    for i, line in enumerate(runs.tolist()):
        try:
            depth = stack.index(line, 1)
        except ValueError:
            if len(stack) == max_assoc:
                stack.pop()
        else:
            depths[i] = depth
            del stack[depth]
        stack.insert(0, line)
    return np.asarray(depths, dtype=np.int64)


def interleave_chunks_loop(
    streams: Sequence[np.ndarray], chunk: int
) -> np.ndarray:
    """Round-robin ``chunk`` accesses from each non-exhausted stream in
    turn, one slice at a time."""
    streams = [s for s in streams if len(s)]
    if not streams:
        return np.zeros(0, dtype=np.int64)
    pieces: List[np.ndarray] = []
    positions = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining > 0:
        for i, stream in enumerate(streams):
            start = positions[i]
            if start >= len(stream):
                continue
            stop = min(start + chunk, len(stream))
            pieces.append(stream[start:stop])
            positions[i] = stop
            remaining -= stop - start
    return np.concatenate(pieces)


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ValueError(
            f"prediction shape {pred.shape} != target shape {target.shape}"
        )
    if pred.size == 0:
        raise ValueError("loss evaluated on empty arrays")


class MSELoss:
    """Mean squared error."""

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        _check_shapes(pred, target)
        diff = pred - target
        return float(np.mean(diff * diff))

    def gradient(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        _check_shapes(pred, target)
        return 2.0 * (pred - target) / pred.size


class Adam:
    """Adam: adaptive moments (Kingma & Ba)."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, layers: Sequence[Dense], grads: Gradients) -> None:
        """Apply one update to every layer from its ``grads`` entry."""
        self._t += 1
        t = self._t
        for layer, layer_grads in zip(layers, grads):
            key = id(layer)
            m = self._m.get(
                key, (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            )
            v = self._v.get(
                key, (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            )
            params = (layer.weights, layer.bias)
            new_m, new_v = [], []
            for (mi, vi, gi, pi) in zip(m, v, layer_grads, params):
                mi = self.beta1 * mi + (1 - self.beta1) * gi
                vi = self.beta2 * vi + (1 - self.beta2) * gi * gi
                m_hat = mi / (1 - self.beta1**t)
                v_hat = vi / (1 - self.beta2**t)
                pi -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
                new_m.append(mi)
                new_v.append(vi)
            self._m[key] = tuple(new_m)
            self._v[key] = tuple(new_v)


def dense_forward(
    layer: Dense, x: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """``layer.forward(x)`` plus the ``(input, pre-activation)`` cache
    :func:`dense_backward` needs."""
    x = np.atleast_2d(x)
    preact = x @ layer.weights + layer.bias
    return layer.activation.forward(preact), (x, preact)


def dense_backward(
    layer: Dense,
    cache: Tuple[np.ndarray, np.ndarray],
    grad_out: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. ``(input, weights, bias)`` of one layer."""
    x, preact = cache
    grad_preact = layer.activation.backward(preact, grad_out)
    grad_weights = x.T @ grad_preact
    grad_bias = grad_preact.sum(axis=0)
    return grad_preact @ layer.weights.T, grad_weights, grad_bias


def mlp_forward(
    net: MLP, x: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """``net.forward(x)`` plus every layer's backward cache."""
    out = np.atleast_2d(np.asarray(x, dtype=float))
    caches = []
    for layer in net.layers:
        out, cache = dense_forward(layer, out)
        caches.append(cache)
    return out, caches


def mlp_backward(
    net: MLP,
    caches: List[Tuple[np.ndarray, np.ndarray]],
    grad_out: np.ndarray,
) -> Gradients:
    """Backpropagate through all layers; returns per-layer gradients."""
    grads: Gradients = []
    grad = grad_out
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        grad, grad_weights, grad_bias = dense_backward(layer, cache, grad)
        grads.append((grad_weights, grad_bias))
    return grads[::-1]


def train_batch(
    net: MLP, x: np.ndarray, y: np.ndarray, loss: MSELoss
) -> Tuple[float, Gradients]:
    """One forward/backward pass: the batch loss and the gradients."""
    pred, caches = mlp_forward(net, x)
    value = loss.value(pred, y)
    return value, mlp_backward(net, caches, loss.gradient(pred, y))


def train(
    net: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    *,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    config: TrainingConfig = TrainingConfig(),
) -> TrainingHistory:
    """Train ``net`` in place; returns the loss history.

    With a validation set, the best-validation weights are restored at
    the end (classic early stopping, matching the paper's use of a
    validation split).  Without one, the final weights stand.
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    y_train = np.atleast_2d(np.asarray(y_train, dtype=float))
    if y_train.shape[0] != x_train.shape[0]:
        raise ValueError("x_train and y_train row counts differ")
    has_val = x_val is not None and y_val is not None and len(x_val) > 0
    if has_val:
        x_val = np.atleast_2d(np.asarray(x_val, dtype=float))
        y_val = np.atleast_2d(np.asarray(y_val, dtype=float))
        if y_val.shape[0] != x_val.shape[0]:
            raise ValueError("x_val and y_val row counts differ")

    loss_fn = MSELoss()
    opt = Adam(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = TrainingHistory()

    best_val = np.inf
    best_weights = None
    epochs_since_best = 0
    n = x_train.shape[0]

    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            value, grads = train_batch(
                net, x_train[idx], y_train[idx], loss_fn
            )
            epoch_loss += value
            opt.step(net.layers, grads)
            batches += 1
        history.train_loss.append(epoch_loss / max(batches, 1))

        if has_val:
            val_value = loss_fn.value(net.forward(x_val), y_val)
            history.val_loss.append(val_value)
            if val_value < best_val - 1e-12:
                best_val = val_value
                best_weights = net.get_weights()
                history.best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if (
                    config.patience is not None
                    and epochs_since_best >= config.patience
                ):
                    history.stopped_early = True
                    break

    if has_val and best_weights is not None:
        net.set_weights(best_weights)
    elif not has_val:
        history.best_epoch = history.epochs_run - 1
    return history


def fit_sequential(
    regressor: BaggedRegressor,
    x_train: np.ndarray,
    y_train: np.ndarray,
    *,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    config: TrainingConfig = TrainingConfig(),
) -> List[TrainingHistory]:
    """:meth:`BaggedRegressor.fit`, one :func:`train` call per member.

    Member ``i`` trains on bootstrap row ``i`` of
    :func:`~repro.ann.bagging.bootstrap_indices` with shuffle seed
    ``config.seed + i``, exactly the data and RNG streams the batched
    trainer gives it.
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    y_train = np.asarray(y_train, dtype=float)
    if y_train.ndim == 1:
        y_train = y_train[:, None]
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    bootstrap = bootstrap_indices(regressor.seed, regressor.n_members, n)
    histories = [
        train(
            member,
            x_train[bootstrap[i]],
            y_train[bootstrap[i]],
            x_val=x_val,
            y_val=y_val,
            config=dataclasses.replace(config, seed=config.seed + i),
        )
        for i, member in enumerate(regressor.members)
    ]
    regressor._trained = True
    return histories


def fit_predictor_sequential(
    predictor: AnnPredictor,
    dataset: Dataset,
    *,
    val_dataset: Optional[Dataset] = None,
    config: TrainingConfig = TrainingConfig(),
) -> AnnPredictor:
    """:meth:`AnnPredictor.fit` with the ensemble trained by
    :func:`fit_sequential`; the feature scaling is repeated as is."""
    x = predictor.scaler.fit_transform(predictor._pre(dataset.features))
    y = np.log2(dataset.labels_kb)[:, None]
    x_val = y_val = None
    if val_dataset is not None and len(val_dataset) > 0:
        x_val = predictor.scaler.transform(
            predictor._pre(val_dataset.features)
        )
        y_val = np.log2(val_dataset.labels_kb)[:, None]
    fit_sequential(
        predictor.ensemble, x, y, x_val=x_val, y_val=y_val, config=config
    )
    predictor._fitted = True
    return predictor


class SampleOracle:
    """Every observation kept: the exact distribution that
    :class:`~repro.obs.metrics.Histogram` summarises in log buckets.

    Count, sum (added in feed order), mean, min and max come out as the
    histogram folds them, so they must match it exactly; the
    p-quantile's exact order statistic is the sorted sample's entry at
    rank ``round(p * (count - 1))`` (halves up), which the histogram's
    quantile must be within :data:`RELATIVE_ERROR` of.
    """

    QUANTILES = {"p50": 0.5, "p90": 0.9, "p99": 0.99}

    #: The error bound the histogram documents, relative to the
    #: magnitude of the order statistic.
    RELATIVE_ERROR = 2.0 ** -8

    def __init__(self, values: Sequence[float] = ()) -> None:
        self.values: List[float] = []
        for value in values:
            self.observe(value)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def scalars(self) -> Dict[str, float]:
        """``count``/``sum``/``mean``/``min``/``max`` (zeros when
        empty), as :meth:`~repro.obs.metrics.Histogram.snapshot`
        reports them."""
        values = self.values
        total = 0.0
        for value in values:
            total += value
        count = len(values)
        return {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
        }

    def order_statistics(self) -> Dict[str, float]:
        """``p50``/``p90``/``p99`` as exact order statistics (zeros when
        empty)."""
        if not self.values:
            return {key: 0.0 for key in self.QUANTILES}
        ordered = np.sort(np.asarray(self.values, dtype=np.float64))
        last = len(ordered) - 1
        return {
            key: float(ordered[int(p * last + 0.5)])
            for key, p in self.QUANTILES.items()
        }

    def mismatches(self, snapshot: Dict[str, float]) -> List[str]:
        """What in a histogram ``snapshot`` disagrees with the sample:
        a scalar that differs, or a quantile outside the bound."""
        wrong = [
            f"{key} {snapshot[key]!r} != {value!r}"
            for key, value in self.scalars().items()
            if snapshot[key] != value
        ]
        for key, exact in self.order_statistics().items():
            if abs(snapshot[key] - exact) > self.RELATIVE_ERROR * abs(exact):
                wrong.append(f"{key} {snapshot[key]!r} is not within "
                             f"2**-8 of {exact!r}")
        return wrong


def degradation_candidates(
    rows: Sequence[Optional[Tuple[object, int, float, float]]],
    points: Sequence[Optional[object]],
    fraction: float,
) -> List[Tuple[float, int, int, Tuple[object, object]]]:
    """Every ``(price_nj, work_cycles, rank, (payload, point))`` option
    of one dispatch, in enumeration order: rows (configs ascending,
    ``None`` for a config the store lacks, which still uses up
    ``len(points)`` ranks) × DVFS points in table order.  The streaming
    engine's inline pricing, as it ran on every refused dispatch."""
    candidates = []
    rank = 0
    for row in rows:
        if row is None:
            rank += len(points)
            continue
        payload, total_cycles, dynamic_nj, static_nj = row
        if fraction == 1.0:
            work0 = total_cycles
            dyn0 = dynamic_nj
            sta0 = static_nj
        else:
            work0 = max(1, int(round(total_cycles * fraction)))
            dyn0 = dynamic_nj * fraction
            sta0 = static_nj * fraction
        for point in points:
            if point is None or point.is_nominal:
                work, dyn, sta = work0, dyn0, sta0
            else:
                work = max(1, int(round(work0 / point.freq_scale)))
                dyn = dyn0 * point.dyn_factor
                sta = sta0 * point.static_factor
            candidates.append((dyn + sta, work, rank, (payload, point)))
            rank += 1
    return candidates


def pick_degraded_scan(
    pool,
    size_kb: int,
    preferred_price_nj: float,
    candidates,
    *,
    now: int,
    arrival_cycle: int,
    deadline_cycle: Optional[int],
    slack_pct: float,
):
    """The least-degraded affordable candidate, or ``None``: a full
    scan for the minimum ``(-price, rank)`` among candidates strictly
    cheaper than the preferred price that meet the STOMP slack test
    and fit the pool, whose held grants are summed afresh here."""
    held = pool.state_dict()["held"]
    config = pool.config
    cap = math.inf if config.cap_nj is None else config.cap_nj
    cluster_cap = dict(config.cluster_caps_nj).get(size_kb)
    outstanding = math.fsum(grant for _, grant, _ in held)
    cluster = math.fsum(grant for _, grant, size in held if size == size_kb)

    def affordable(price):
        if price > cap - outstanding:
            return False
        return cluster_cap is None or price <= cluster_cap - cluster

    def admissible(work):
        if deadline_cycle is None:
            return True
        budget = deadline_cycle - arrival_cycle
        return now + work <= deadline_cycle + slack_pct / 100.0 * budget

    best = None
    for price, work, rank, payload in candidates:
        if not price < preferred_price_nj:
            continue
        key = (-price, rank)
        if best is not None and key >= best[0]:
            continue
        if not admissible(work) or not affordable(price):
            continue
        best = (key, payload)
    return None if best is None else best[1]
