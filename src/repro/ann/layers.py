"""Dense (fully connected) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .activations import Activation, Identity

__all__ = ["Dense"]


class Dense:
    """One fully connected layer: ``y = activation(x @ W + b)``.

    Weights use the classic Glorot/Xavier uniform initialisation, which
    suits the tanh hidden layers of the paper's small MLP.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[Activation] = None,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation if activation is not None else Identity()
        generator = rng if rng is not None else np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weights = generator.uniform(
            -limit, limit, size=(in_features, out_features)
        )
        self.bias = np.zeros(out_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch ``(n, in_features)``."""
        x = np.atleast_2d(x)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {x.shape[1]}"
            )
        return self.activation.forward(x @ self.weights + self.bias)

    @property
    def parameter_count(self) -> int:
        """Number of trainable scalars in the layer."""
        return self.weights.size + self.bias.size
