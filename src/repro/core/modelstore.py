"""Content-addressed store for trained ANN predictors.

Training the paper's 30-member ensemble is the expensive step of every
predictor-driven experiment, and it is deterministic in (dataset,
topology, training hyperparameters, seed).  This module mirrors the
characterisation store's :class:`~repro.characterization.store.StoreMeta`
pattern for *trained models*: a :class:`ModelMeta` records a fingerprint
of the exact training inputs, its :meth:`ModelMeta.cache_key` is embedded
in the cache filename by :mod:`repro.experiment`, and
:func:`load_ann_predictor` refuses to serve weights trained from any
other inputs.  A warm cache turns
:func:`repro.experiment.default_predictor` into a pure load — zero
training epochs.

Weights round-trip exactly: JSON serialises python floats via ``repr``,
which reproduces the same float64 bit pattern on load.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro._util import write_json_atomic
from repro.ann.training import TrainingConfig
from repro.characterization.dataset import Dataset

from .predictor import AnnPredictor

__all__ = [
    "ModelMeta",
    "dataset_fingerprint",
    "training_config_key",
    "save_ann_predictor",
    "load_ann_predictor",
]

logger = logging.getLogger(__name__)

#: Version of the on-disk JSON layout.
MODEL_STORE_FORMAT = 1

#: Version of the training pipeline; bump to invalidate every cached
#: model when the trainer's arithmetic changes.
TRAINER_VERSION = "batched-1"


def dataset_fingerprint(dataset: Dataset) -> str:
    """Stable short hash of a dataset's exact contents.

    Covers the feature matrix and label bytes plus the sample names,
    families and feature names — any change to the training data changes
    the fingerprint.
    """
    digest = hashlib.blake2s(digest_size=8)
    digest.update(
        np.ascontiguousarray(
            np.asarray(dataset.features, dtype=float)
        ).tobytes()
    )
    digest.update(
        np.ascontiguousarray(
            np.asarray(dataset.labels_kb, dtype=float)
        ).tobytes()
    )
    blob = "|".join(
        (
            ",".join(dataset.names),
            ",".join(dataset.families),
            ",".join(dataset.feature_names),
        )
    )
    digest.update(blob.encode("utf-8"))
    return digest.hexdigest()


def training_config_key(config: TrainingConfig) -> str:
    """Stable short hash of every :class:`TrainingConfig` field."""
    blob = "|".join(
        (
            str(config.epochs),
            str(config.batch_size),
            repr(config.learning_rate),
            str(config.patience),
            str(config.shuffle),
            str(config.seed),
        )
    )
    return hashlib.blake2s(blob.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class ModelMeta:
    """Identity of a trained model: what produced its weights.

    Two models with equal metadata are interchangeable — ensemble
    training is deterministic in (dataset, topology, hyperparameters,
    seed, trainer version).
    """

    #: :func:`dataset_fingerprint` of the *training* dataset (the
    #: experiment pipeline folds the validation split in through the
    #: split seed, which is part of the dataset-producing inputs).
    dataset_fingerprint: str
    #: Member topology in the paper's notation, e.g. ``"(7, 18, 5, 1)"``.
    topology: str
    #: Ensemble size.
    n_members: int
    #: :func:`training_config_key` of the training hyperparameters.
    training_key: str
    #: Ensemble root seed.
    seed: int
    #: Training pipeline version.
    trainer_version: str = TRAINER_VERSION

    def cache_key(self) -> str:
        """Short content hash used in on-disk cache filenames."""
        blob = "|".join(
            (
                self.dataset_fingerprint,
                self.topology,
                str(self.n_members),
                self.training_key,
                str(self.seed),
                self.trainer_version,
            )
        )
        return hashlib.blake2s(blob.encode("utf-8"), digest_size=8).hexdigest()


def save_ann_predictor(
    path: Union[str, Path], predictor: AnnPredictor, meta: ModelMeta
) -> Path:
    """Serialise a fitted :class:`AnnPredictor` (weights + scaler) to JSON."""
    if not predictor._fitted:
        raise ValueError("cannot save an unfitted predictor")
    if predictor.scaler.mean_ is None or predictor.scaler.scale_ is None:
        raise ValueError("cannot save a predictor with an unfitted scaler")
    members = []
    for member in predictor.ensemble.members:
        members.append(
            [
                {"weights": w.tolist(), "bias": b.tolist()}
                for w, b in member.get_weights()
            ]
        )
    payload = {
        "format": MODEL_STORE_FORMAT,
        "meta": asdict(meta),
        "predictor": {
            "feature_names": list(predictor.feature_names),
            "sizes_kb": list(predictor.sizes_kb),
            "n_members": predictor.ensemble.n_members,
            "hidden": list(predictor.ensemble.hidden),
            "hidden_activation": predictor.ensemble.hidden_activation,
            "log_features": predictor.log_features,
            "seed": predictor.ensemble.seed,
        },
        "scaler": {
            "mean": predictor.scaler.mean_.tolist(),
            "scale": predictor.scaler.scale_.tolist(),
        },
        "members": members,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json_atomic(path, payload)
    return path


def load_ann_predictor(
    path: Union[str, Path], expected_meta: Optional[ModelMeta] = None
) -> Optional[AnnPredictor]:
    """Load a predictor saved by :func:`save_ann_predictor`.

    Returns ``None`` when the file is missing, unreadable, written by a
    different store format, or (with ``expected_meta``) was trained from
    different inputs — callers fall back to training.
    """
    path = Path(path)
    if not path.is_file():
        logger.info("model-store miss: %s does not exist", path)
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        logger.warning("model-store miss: %s unreadable (%s)", path, error)
        return None
    if not isinstance(payload, dict):
        logger.warning("model-store miss: %s is not a JSON object", path)
        return None
    if payload.get("format") != MODEL_STORE_FORMAT:
        logger.info(
            "model-store miss: %s has format %r, wanted %r",
            path, payload.get("format"), MODEL_STORE_FORMAT,
        )
        return None
    try:
        meta = ModelMeta(**payload["meta"])
        spec = payload["predictor"]
        predictor = AnnPredictor(
            feature_names=spec["feature_names"],
            sizes_kb=spec["sizes_kb"],
            n_members=spec["n_members"],
            hidden=spec["hidden"],
            log_features=spec["log_features"],
            seed=spec["seed"],
        )
        if (
            spec.get("hidden_activation", "tanh")
            != predictor.ensemble.hidden_activation
        ):
            # AnnPredictor builds tanh ensembles only; a save with any
            # other activation cannot be reconstructed faithfully here.
            return None
        predictor.scaler.mean_ = np.asarray(
            payload["scaler"]["mean"], dtype=float
        )
        predictor.scaler.scale_ = np.asarray(
            payload["scaler"]["scale"], dtype=float
        )
        members = payload["members"]
        if len(members) != len(predictor.ensemble.members):
            return None
        for member, layers in zip(predictor.ensemble.members, members):
            member.set_weights(
                [
                    (
                        np.asarray(layer["weights"], dtype=float),
                        np.asarray(layer["bias"], dtype=float),
                    )
                    for layer in layers
                ]
            )
    except (KeyError, TypeError, ValueError) as error:
        logger.warning("model-store miss: %s malformed (%s)", path, error)
        return None
    if expected_meta is not None and meta != expected_meta:
        logger.info(
            "model-store miss: %s was trained from different inputs "
            "(cached %s, wanted %s)",
            path, meta, expected_meta,
        )
        return None
    predictor.ensemble._trained = True
    predictor._fitted = True
    logger.debug("model-store hit: %s", path)
    return predictor
