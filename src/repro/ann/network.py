"""Multi-layer perceptron.

The paper's predictor (its Figure 3) is a small feed-forward ANN whose
size is written ``{n_1, n_2, ..., n_m}``; empirical analysis there found
``{10, 18, 5, 1}`` best for cache-size prediction — an input layer, two
hidden layers of 18 and 5 processing elements, and a single output.
:data:`PAPER_TOPOLOGY` captures the hidden/output part of that shape; the
input width follows the selected feature count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .activations import make_activation
from .layers import Dense

__all__ = ["MLP", "PAPER_TOPOLOGY"]

#: Hidden-layer widths of the paper's best ANN size {10, 18, 5, 1}
#: (10 inputs, 18 and 5 hidden PEs, one output).
PAPER_TOPOLOGY: Tuple[int, ...] = (18, 5)


class MLP:
    """Feed-forward network: input → hidden layers → one linear output.

    Parameters
    ----------
    in_features:
        Width of the input feature vector.
    hidden:
        Hidden-layer widths, e.g. the paper's ``(18, 5)``.
    out_features:
        Output width (1 for the cache-size regressor).
    hidden_activation:
        Nonlinearity name for hidden layers (default ``tanh``).
    seed:
        Weight-initialisation seed; distinct seeds give the independently
        initialised ensemble members of the paper's bagging scheme.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = PAPER_TOPOLOGY,
        out_features: int = 1,
        *,
        hidden_activation: str = "tanh",
        seed: int = 0,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("network dimensions must be positive")
        for width in hidden:
            if width <= 0:
                raise ValueError(f"hidden width must be positive, got {width}")
        self.in_features = in_features
        self.hidden = tuple(hidden)
        self.out_features = out_features
        self.seed = seed
        rng = np.random.default_rng(seed)
        widths = [in_features, *hidden, out_features]
        self.layers: List[Dense] = []
        for i in range(len(widths) - 1):
            is_output = i == len(widths) - 2
            activation = make_activation(
                "identity" if is_output else hidden_activation
            )
            self.layers.append(
                Dense(widths[i], widths[i + 1], activation, rng=rng)
            )

    @property
    def topology(self) -> Tuple[int, ...]:
        """Layer widths in the paper's ``{n_1, ..., n_m}`` notation."""
        return (self.in_features, *self.hidden, self.out_features)

    @property
    def parameter_count(self) -> int:
        """Total trainable scalar count."""
        return sum(layer.parameter_count for layer in self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch prediction ``(n, in_features) → (n, out_features)``."""
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` for inference call sites."""
        return self.forward(x)

    def get_weights(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Copies of all ``(weights, bias)`` pairs, input-to-output order."""
        return [(layer.weights.copy(), layer.bias.copy()) for layer in self.layers]

    def set_weights(self, weights: List[Tuple[np.ndarray, np.ndarray]]) -> None:
        """Restore parameters saved by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} layer parameter pairs, "
                f"got {len(weights)}"
            )
        for layer, (w, b) in zip(self.layers, weights):
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise ValueError("parameter shapes do not match the network")
            layer.weights = w.copy()
            layer.bias = b.copy()
