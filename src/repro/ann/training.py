"""Training hyperparameters and the per-member loss history.

The trainer itself is :func:`repro.ann.batched.train_ensemble_batched`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["TrainingConfig", "TrainingHistory"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run."""

    epochs: int = 400
    batch_size: int = 16
    learning_rate: float = 0.01
    #: Stop after this many epochs without validation improvement;
    #: ``None`` disables early stopping.
    patience: Optional[int] = 40
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience is not None and self.patience <= 0:
            raise ValueError("patience must be positive or None")


@dataclass
class TrainingHistory:
    """Per-epoch losses and the early-stopping outcome."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.train_loss)
