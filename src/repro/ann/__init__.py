"""From-scratch artificial neural network substrate (numpy only):
dense layers, activations, and the paper's 30-member bagging ensemble
with its stacked-pass trainer (MSE loss, Adam, early stopping).
"""

from .activations import (
    ACTIVATION_NAMES,
    Activation,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
    make_activation,
)
from .bagging import (
    PAPER_ENSEMBLE_SIZE,
    BaggedRegressor,
    bootstrap_indices,
)
from .batched import train_ensemble_batched
from .layers import Dense
from .metrics import class_accuracy, confusion_counts, mae, mse, r2_score
from .neighbors import KNNRegressor
from .network import MLP, PAPER_TOPOLOGY
from .preprocessing import StandardScaler, log_transform, snap_to_classes
from .tree import DecisionTreeRegressor, RandomForestRegressor
from .training import TrainingConfig, TrainingHistory

__all__ = [
    "ACTIVATION_NAMES",
    "Activation",
    "BaggedRegressor",
    "DecisionTreeRegressor",
    "Dense",
    "Identity",
    "KNNRegressor",
    "LeakyReLU",
    "MLP",
    "PAPER_ENSEMBLE_SIZE",
    "PAPER_TOPOLOGY",
    "RandomForestRegressor",
    "ReLU",
    "Sigmoid",
    "StandardScaler",
    "Tanh",
    "TrainingConfig",
    "TrainingHistory",
    "bootstrap_indices",
    "class_accuracy",
    "confusion_counts",
    "log_transform",
    "mae",
    "make_activation",
    "mse",
    "r2_score",
    "snap_to_classes",
    "train_ensemble_batched",
]
