"""Models that only the §VIII future-work ablations use.

The scheduler needs one configurable L1 per core and the bagged ANN;
the private and shared L2 models (:mod:`tests.ablation.caches`, ablations
A4 and A12) and the alternative predictors (:mod:`tests.ablation.models`,
ablation A5) are study artefacts, so they live beside the benchmarks
and unit tests that use them rather than in the ``repro`` package.
"""
