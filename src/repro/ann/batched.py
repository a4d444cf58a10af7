"""Batched (vectorised) ensemble training engine.

The per-member reference (``train`` in ``tests/oracles.py``, called
once per ensemble member) spends its time in Python loop overhead:
the paper's 30-member ensemble multiplies every forward/backward/
optimiser dispatch by 30 on matrices of at most a few hundred floats.
This engine trains **all members in one stacked pass**:

* parameters live in one ``(members, P)`` buffer, each member's row
  holding every layer's weights then bias; each layer sees
  ``(members, in, out)`` and ``(members, out)`` views of it, and the
  forward/backward passes are batched matmuls
  (``(M, B, in) @ (M, in, out)``) — numpy dispatches the same GEMM per
  member slice, so per-member arithmetic is identical to the reference;
* gradients land in views of a matching buffer, so the Adam step is 14
  elementwise operations over the whole ``(members, P)`` state, not 14
  per layer and tensor: the same operands in the same order, so every
  element gets the reference's IEEE result;
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

from typing import List, Optional, Sequence, Tuple

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


def _layer_views(
    flat: np.ndarray, shapes: Sequence[Tuple[int, int]]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(weights, bias)`` views into a ``(members, P)`` buffer."""
    views = []
    offset = 0
    for n_in, n_out in shapes:
        size = n_in * n_out
        weights = flat[:, offset : offset + size].reshape(
            flat.shape[0], n_in, n_out
        )
        offset += size
        views.append((weights, flat[:, offset : offset + n_out]))
        offset += n_out
    return views


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
    shapes = [layer.weights.shape for layer in members[0].layers]
    # Parameters, gradients and Adam state as flat buffers, compacted to
    # the active members; the per-layer views are re-derived on compaction.
    params = np.stack([
        np.concatenate([a.ravel() for w_b in m.get_weights() for a in w_b])
        for m in members
    ])
    layers = _layer_views(params, shapes)
    grads = np.empty_like(params)
    grad_layers = _layer_views(grads, shapes)
    m_adam = np.zeros_like(params)
    v_adam = np.zeros_like(params)
    lr = config.learning_rate
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0  # Adam step count — shared: active members step in lockstep.

    histories = [TrainingHistory() for _ in range(n_members)]
    # Early-stopping state, indexed by original member id.
    best_val = np.full(n_members, np.inf)
    since_best = np.zeros(n_members, dtype=int)
    best_params = params.copy()
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
            for (weights, bias), activation in zip(layers, activations):
                inputs.append(out)
                z = out @ weights + bias[:, None, :]
                preacts.append(z)
                out = activation.forward(z)
            diff = out - yb
            epoch_loss += mean_per_member(diff * diff)
            batches += 1
            # Backward (MSE gradient, same evaluation order as the
            # reference: (2 * diff) / per-member prediction size).
            grad = 2.0 * diff / diff[0].size
            for l in reversed(range(n_layers)):
                grad_z = activations[l].backward(preacts[l], grad)
                grad_w, grad_b = grad_layers[l]
                np.matmul(inputs[l].transpose(0, 2, 1), grad_z, out=grad_w)
                grad_z.sum(axis=1, out=grad_b)
                grad = np.matmul(grad_z, layers[l][0].transpose(0, 2, 1))
            # Adam step; bias corrections are scalars because every
            # active member has taken exactly t steps.  Each line keeps
            # the reference's operands and order of operations.
            t += 1
            c1 = 1 - beta1**t
            c2 = 1 - beta2**t
            m_adam *= beta1
            m_adam += (1 - beta1) * grads
            v_adam *= beta2
            v_adam += (1 - beta2) * grads * grads
            params -= lr * (m_adam / c1) / (np.sqrt(v_adam / c2) + eps)

        mean_loss = epoch_loss / max(batches, 1)
        for row, member_id in enumerate(ids):
            histories[member_id].train_loss.append(float(mean_loss[row]))

        if not has_val:
            continue
        out = x_val[None, :, :]
        for (weights, bias), activation in zip(layers, activations):
            out = activation.forward(out @ weights + bias[:, None, :])
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
        best_params[improved_ids] = params[improved]

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
        params, m_adam, v_adam = params[keep], m_adam[keep], v_adam[keep]
        grads = np.empty_like(params)
        layers = _layer_views(params, shapes)
        grad_layers = _layer_views(grads, shapes)

    # Scatter surviving members' final weights into the snapshot buffer,
    # then hand each member its reference-equivalent final parameters:
    # best-validation weights when a validation set drove the run, the
    # final weights otherwise.
    if has_val:
        keep_final = ~has_best[ids]  # never-improved members keep final
    else:
        keep_final = np.ones(ids.size, dtype=bool)
    best_params[ids[keep_final]] = params[keep_final]
    final_layers = _layer_views(best_params, shapes)
    for member_id, member in enumerate(members):
        member.set_weights(
            [(w[member_id], b[member_id]) for w, b in final_layers]
        )
        if not has_val:
            history = histories[member_id]
            history.best_epoch = history.epochs_run - 1
    return histories
