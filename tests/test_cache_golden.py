"""The content-addressed cache files keep their bytes.

``default_store``, ``default_dataset`` and ``default_predictor`` name
their cache files by a key over their *inputs* (seed, design space,
generator version, dataset fingerprint, topology, training settings).
A change to the characterisation engine, the energy model or the
trainer that moved a single output byte would keep that key, and every
existing cache would silently go on serving the old numbers.  These
digests pin the bytes of a small instance of each file: a change that
moves them must bump the key it invalidates (``GENERATOR_VERSION`` for
the stores) and record the new digests here.

The model digest also pins floating-point results of numpy's matmul,
recorded with the OpenBLAS that numpy wheels ship on x86-64 Linux.
"""

import hashlib

import pytest

from repro.experiment import default_predictor, default_store

#: File name -> sha256 of its bytes.
GOLDEN = {
    "store.438af912bda0b461.json":
        "dbc875ae15d6e5f6589cfe49969993110d97d678ee84a922e999ef58e998939b",
    "dataset.d713eb9f36ad7c03.json":
        "21c6d74e58e9b2b1a231b64d1e40dffada7e14304e1f8fe3207604f74feea0b2",
    "model.65c6e237e6b61570.json":
        "57112725f94b7daca5679679cd30607e41ca3030cfd820511749b7046538ed1f",
}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """The suite store, its two-variant dataset store and a 3-member,
    20-epoch model, written cold."""
    path = tmp_path_factory.mktemp("caches")
    store = default_store(path / "store.json", seed=0)
    default_predictor(
        store, variants_per_family=2, n_members=3, epochs=20, seed=0,
        model_cache_path=path / "model.json",
        dataset_cache_path=path / "dataset.json",
    )
    return path


def test_cache_file_names(cache_dir):
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cache_file_bytes(cache_dir, name):
    digest = hashlib.sha256((cache_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], name
