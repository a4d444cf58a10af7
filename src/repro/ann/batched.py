"""Batched (vectorised) ensemble training engine.

The per-member reference (``train`` in ``tests/oracles.py``, called
once per ensemble member) spends its time in Python loop overhead:
the paper's 30-member ensemble multiplies every forward/backward/
optimiser dispatch by 30 on matrices of at most a few hundred floats.
This engine trains **all members in one stacked pass**:

* parameters are held as ``(members, in, out)`` tensors, one stack per
  layer, and the forward/backward passes are batched matmuls
  (``(M, B, in) @ (M, in, out)``) — numpy dispatches the same GEMM per
  member slice, so per-member arithmetic is identical to the reference;
* every member trains on its own rows of a per-member bootstrap index
  matrix, gathered into an ``(M, n, features)`` tensor up front;
* per-member early stopping is an *active-member mask*: members whose
  validation loss stops improving drop out of the stacked tensors (the
  state is compacted), while the survivors keep training in lockstep.

Member equivalence is exact by construction — each member consumes its
own shuffle RNG stream (``config.seed + i``, as the reference does), the
Adam step count ``t`` is shared by all active members because members
only ever *leave* the lockstep batch loop, and reductions run over the
same contiguous data per member — and is property-tested against the
per-member reference in ``tests/ann/test_batched.py``.

The loss is MSE and the optimiser Adam, the reference's only settings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .network import MLP
from .training import TrainingConfig, TrainingHistory

__all__ = ["train_ensemble_batched"]


def _validate_members(members: Sequence[MLP]) -> None:
    if not members:
        raise ValueError("need at least one ensemble member")
    first = members[0]
    for member in members[1:]:
        if member.topology != first.topology:
            raise ValueError(
                "batched training needs a homogeneous ensemble: "
                f"{member.topology} != {first.topology}"
            )
        for layer, ref_layer in zip(member.layers, first.layers):
            if type(layer.activation) is not type(ref_layer.activation):
                raise ValueError(
                    "batched training needs identical member activations"
                )


def train_ensemble_batched(
    members: Sequence[MLP],
    x_train: np.ndarray,
    y_train: np.ndarray,
    *,
    bootstrap: Optional[np.ndarray] = None,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    config: TrainingConfig = TrainingConfig(),
    seeds: Optional[Sequence[int]] = None,
) -> List[TrainingHistory]:
    """Train every member in place in one stacked pass.

    Parameters
    ----------
    members:
        Homogeneous ensemble (same topology and activations); their
        weights are updated in place, exactly as the per-member
        reference leaves them.
    x_train, y_train:
        Shared training pool, ``(n, in)`` and ``(n, out)``.
    bootstrap:
        Optional ``(len(members), n)`` per-member resample index matrix;
        member ``i`` trains on ``x_train[bootstrap[i]]``.  ``None``
        trains every member on the pool as-is.
    x_val, y_val:
        Shared validation set driving per-member early stopping and
        best-weight restoration: with a validation set each member ends
        on its best-validation weights, without one on its final
        weights.
    config:
        Hyperparameters (MSE loss and Adam are fixed).
    seeds:
        Per-member shuffle seeds; defaults to ``config.seed + i``,
        matching :class:`~repro.ann.bagging.BaggedRegressor`.

    Returns per-member :class:`TrainingHistory`, index-aligned with
    ``members``.
    """
    _validate_members(members)
    n_members = len(members)
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    y_train = np.atleast_2d(np.asarray(y_train, dtype=float))
    if y_train.shape[0] != x_train.shape[0]:
        raise ValueError("x_train and y_train row counts differ")
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")

    if bootstrap is None:
        xs = np.broadcast_to(x_train, (n_members, *x_train.shape)).copy()
        ys = np.broadcast_to(y_train, (n_members, *y_train.shape)).copy()
    else:
        bootstrap = np.asarray(bootstrap, dtype=int)
        if bootstrap.shape != (n_members, n):
            raise ValueError(
                f"bootstrap must have shape {(n_members, n)}, "
                f"got {bootstrap.shape}"
            )
        xs = x_train[bootstrap]
        ys = y_train[bootstrap]

    has_val = x_val is not None and y_val is not None and len(x_val) > 0
    if has_val:
        x_val = np.atleast_2d(np.asarray(x_val, dtype=float))
        y_val = np.atleast_2d(np.asarray(y_val, dtype=float))
        if y_val.shape[0] != x_val.shape[0]:
            raise ValueError("x_val and y_val row counts differ")

    if seeds is None:
        seeds = [config.seed + i for i in range(n_members)]
    elif len(seeds) != n_members:
        raise ValueError("need one shuffle seed per member")
    rngs = [np.random.default_rng(seed) for seed in seeds]

    n_layers = len(members[0].layers)
    activations = [layer.activation for layer in members[0].layers]
    # Stacked parameters and Adam state, compacted to active members.
    weights = [
        np.stack([m.layers[l].weights for m in members])
        for l in range(n_layers)
    ]
    biases = [
        np.stack([m.layers[l].bias for m in members]) for l in range(n_layers)
    ]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    lr = config.learning_rate
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0  # Adam step count — shared: active members step in lockstep.

    histories = [TrainingHistory() for _ in range(n_members)]
    # Early-stopping state, indexed by original member id.
    best_val = np.full(n_members, np.inf)
    since_best = np.zeros(n_members, dtype=int)
    best_weights = [w.copy() for w in weights]
    best_biases = [b.copy() for b in biases]
    has_best = np.zeros(n_members, dtype=bool)
    ids = np.arange(n_members)  # original id of each compacted row

    def mean_per_member(values: np.ndarray) -> np.ndarray:
        """Row-wise mean over the flattened (batch, out) trailing axes."""
        return values.reshape(values.shape[0], -1).mean(axis=1)

    for epoch in range(config.epochs):
        if ids.size == 0:
            break
        if config.shuffle:
            orders = np.stack([rngs[i].permutation(n) for i in ids])
            xe = np.take_along_axis(xs, orders[:, :, None], axis=1)
            ye = np.take_along_axis(ys, orders[:, :, None], axis=1)
        else:
            xe, ye = xs, ys

        epoch_loss = np.zeros(ids.size)
        batches = 0
        for start in range(0, n, config.batch_size):
            xb = xe[:, start : start + config.batch_size]
            yb = ye[:, start : start + config.batch_size]
            # Forward, caching layer inputs and pre-activations.
            out = xb
            inputs: List[np.ndarray] = []
            preacts: List[np.ndarray] = []
            for l in range(n_layers):
                inputs.append(out)
                z = out @ weights[l] + biases[l][:, None, :]
                preacts.append(z)
                out = activations[l].forward(z)
            diff = out - yb
            epoch_loss += mean_per_member(diff * diff)
            batches += 1
            # Backward (MSE gradient, same evaluation order as the
            # reference: (2 * diff) / per-member prediction size).
            grad = 2.0 * diff / diff[0].size
            grads_w: List[np.ndarray] = [None] * n_layers  # type: ignore
            grads_b: List[np.ndarray] = [None] * n_layers  # type: ignore
            for l in reversed(range(n_layers)):
                grad_z = activations[l].backward(preacts[l], grad)
                grads_w[l] = np.matmul(inputs[l].transpose(0, 2, 1), grad_z)
                grads_b[l] = grad_z.sum(axis=1)
                grad = np.matmul(grad_z, weights[l].transpose(0, 2, 1))
            # Adam step; bias corrections are scalars because every
            # active member has taken exactly t steps.
            t += 1
            c1 = 1 - beta1**t
            c2 = 1 - beta2**t
            for l in range(n_layers):
                for params, grads, ms, vs in (
                    (weights, grads_w, m_w, v_w),
                    (biases, grads_b, m_b, v_b),
                ):
                    ms[l] = beta1 * ms[l] + (1 - beta1) * grads[l]
                    vs[l] = beta2 * vs[l] + (1 - beta2) * grads[l] * grads[l]
                    m_hat = ms[l] / c1
                    v_hat = vs[l] / c2
                    params[l] -= lr * m_hat / (np.sqrt(v_hat) + eps)

        mean_loss = epoch_loss / max(batches, 1)
        for row, member_id in enumerate(ids):
            histories[member_id].train_loss.append(float(mean_loss[row]))

        if not has_val:
            continue
        out = x_val[None, :, :]
        for l in range(n_layers):
            out = activations[l].forward(
                out @ weights[l] + biases[l][:, None, :]
            )
        val_diff = out - y_val[None, :, :]
        val_values = mean_per_member(val_diff * val_diff)
        for row, member_id in enumerate(ids):
            histories[member_id].val_loss.append(float(val_values[row]))

        improved = val_values < best_val[ids] - 1e-12
        improved_ids = ids[improved]
        best_val[improved_ids] = val_values[improved]
        since_best[improved_ids] = 0
        since_best[ids[~improved]] += 1
        has_best[improved_ids] = True
        for member_id in improved_ids:
            histories[member_id].best_epoch = epoch
        for l in range(n_layers):
            best_weights[l][improved_ids] = weights[l][improved]
            best_biases[l][improved_ids] = biases[l][improved]

        if config.patience is None:
            continue
        keep = since_best[ids] < config.patience
        if keep.all():
            continue
        for member_id in ids[~keep]:
            histories[member_id].stopped_early = True
        # Compact every stacked tensor down to the surviving members.
        ids = ids[keep]
        xs, ys = xs[keep], ys[keep]
        for l in range(n_layers):
            weights[l] = weights[l][keep]
            biases[l] = biases[l][keep]
            m_w[l], v_w[l] = m_w[l][keep], v_w[l][keep]
            m_b[l], v_b[l] = m_b[l][keep], v_b[l][keep]

    # Scatter surviving members' final weights into the snapshot stacks,
    # then hand each member its reference-equivalent final parameters:
    # best-validation weights when a validation set drove the run, the
    # final weights otherwise.
    final_weights = [w.copy() for w in best_weights]
    final_biases = [b.copy() for b in best_biases]
    if has_val:
        keep_final = ~has_best[ids]  # never-improved members keep final
    else:
        keep_final = np.ones(ids.size, dtype=bool)
    for l in range(n_layers):
        final_weights[l][ids[keep_final]] = weights[l][keep_final]
        final_biases[l][ids[keep_final]] = biases[l][keep_final]
    for member_id, member in enumerate(members):
        member.set_weights(
            [
                (final_weights[l][member_id], final_biases[l][member_id])
                for l in range(n_layers)
            ]
        )
        if not has_val:
            history = histories[member_id]
            history.best_epoch = history.epochs_run - 1
    return histories
