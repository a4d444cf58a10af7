"""CACTI-style analytical cache energy model.

The paper obtained per-access dynamic energies from CACTI 2.0 at a
0.18 µm technology node.  CACTI itself is not available offline, so this
module provides an analytical substitute built from the same structural
decomposition CACTI uses: row decoder, word lines, bit lines, sense
amplifiers, tag array, tag comparators and output drivers.  Absolute
values are calibrated to the magnitude CACTI reports for small 0.18 µm
SRAMs (an 8 KB 4-way cache costs on the order of one nanojoule per
access); what the reproduction actually depends on is the *monotone
structure*:

* larger caches cost more per access (longer bit lines, bigger decoders),
* higher associativity costs more per access (more ways read in
  parallel, more comparators),
* longer lines cost more per *fill* (more bits written) and slightly more
  per access (wider data array).

Those trends are what make cache-size prediction and the tuning heuristic
meaningful, and they are asserted by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.cache.config import CacheConfig

__all__ = ["CactiParameters", "CactiModel", "EnergyComponents"]


@dataclass(frozen=True)
class CactiParameters:
    """Technology-dependent energy coefficients (all in nanojoules).

    Defaults are calibrated for a 0.18 µm node so that the base
    configuration (8 KB, 4-way, 64 B) lands at single-digit nanojoules
    per access — the magnitude CACTI 2.0 reports at that node.  With
    the 10 %-of-base-dynamic static rule (Figure 4) they give a static
    share of about 45 % of system energy over the synthetic suite,
    well below the ≈ 90 % leakage the paper's totals imply
    (EXPERIMENTS.md, E2); that gap is why the measured savings are
    deeper than the paper's.  Absolute joules are not meaningful in
    this synthetic substitute; the monotone trends above are what
    matters.
    """

    tech_um: float = 0.18
    #: Energy per decoder input bit (address decode tree).
    decode_nj_per_bit: float = 0.030
    #: Energy per cell driven on a word line.
    wordline_nj_per_cell: float = 0.00088
    #: Energy per bit-line column precharged/discharged, per unit swing.
    bitline_nj_per_column: float = 0.00138
    #: Bit-line energy growth with row count (longer bit lines).
    bitline_row_factor: float = 1.0 / 256.0
    #: Energy per sense amplifier fired.
    senseamp_nj_per_bit: float = 0.00113
    #: Energy per tag bit read/compared.
    tag_nj_per_bit: float = 0.0045
    #: Energy per output-driver bit.
    output_nj_per_bit: float = 0.0030
    #: Physical address width assumed for tag sizing.
    address_bits: int = 32

    def scaled(self, tech_um: float) -> "CactiParameters":
        """Return parameters scaled to another technology node.

        Dynamic energy scales roughly with C·V² ∝ feature size ·
        voltage²; we use the common first-order (tech/0.18)³ scaling.
        """
        factor = (tech_um / 0.18) ** 3
        return CactiParameters(
            tech_um=tech_um,
            decode_nj_per_bit=self.decode_nj_per_bit * factor,
            wordline_nj_per_cell=self.wordline_nj_per_cell * factor,
            bitline_nj_per_column=self.bitline_nj_per_column * factor,
            bitline_row_factor=self.bitline_row_factor,
            senseamp_nj_per_bit=self.senseamp_nj_per_bit * factor,
            tag_nj_per_bit=self.tag_nj_per_bit * factor,
            output_nj_per_bit=self.output_nj_per_bit * factor,
            address_bits=self.address_bits,
        )


@dataclass(frozen=True)
class EnergyComponents:
    """Per-access energy decomposition, in nanojoules."""

    decode_nj: float
    wordline_nj: float
    bitline_nj: float
    senseamp_nj: float
    tag_nj: float
    output_nj: float

    @property
    def total_nj(self) -> float:
        """Sum of all components."""
        return (
            self.decode_nj
            + self.wordline_nj
            + self.bitline_nj
            + self.senseamp_nj
            + self.tag_nj
            + self.output_nj
        )


class CactiModel:
    """Analytical per-access and per-fill energies for a cache config."""

    def __init__(self, params: CactiParameters = CactiParameters()) -> None:
        self.params = params
        self._access_cache: Dict[CacheConfig, EnergyComponents] = {}

    def tag_bits(self, config: CacheConfig) -> int:
        """Tag width: address bits minus set-index and line-offset bits."""
        index_bits = int(math.log2(config.num_sets))
        offset_bits = int(math.log2(config.line_b))
        return self.params.address_bits - index_bits - offset_bits

    def components(self, config: CacheConfig) -> EnergyComponents:
        """Per-read-access energy decomposition.

        A conventional parallel-access set-associative cache reads all
        ways of the selected set (data and tags) and selects late, so both
        the data and tag energies scale with the associativity.
        """
        cached = self._access_cache.get(config)
        if cached is not None:
            return cached
        p = self.params
        rows = config.num_sets
        data_columns = config.assoc * config.line_b * 8
        row_scale = 1.0 + p.bitline_row_factor * rows
        tag_bits = self.tag_bits(config)
        tag_columns = config.assoc * tag_bits

        components = EnergyComponents(
            decode_nj=p.decode_nj_per_bit * max(1, int(math.log2(max(rows, 2)))),
            wordline_nj=p.wordline_nj_per_cell * data_columns,
            bitline_nj=p.bitline_nj_per_column * data_columns * row_scale,
            senseamp_nj=p.senseamp_nj_per_bit * data_columns,
            tag_nj=p.tag_nj_per_bit * tag_columns * row_scale,
            # A hit drives one word (32 bits) to the CPU.
            output_nj=p.output_nj_per_bit * 32,
        )
        self._access_cache[config] = components
        return components

    def access_energy_nj(self, config: CacheConfig) -> float:
        """Dynamic energy of one cache access (the E(hit) of Figure 4)."""
        return self.components(config).total_nj

    def fill_energy_nj(self, config: CacheConfig) -> float:
        """Energy to write one full line into the cache (E(cache fill)).

        A fill writes ``line_b`` bytes into a single way plus its tag, so
        it scales with the line size but not the associativity.
        """
        p = self.params
        data_bits = config.line_b * 8
        tag_bits = self.tag_bits(config)
        rows = config.num_sets
        row_scale = 1.0 + p.bitline_row_factor * rows
        return (
            p.decode_nj_per_bit * max(1, int(math.log2(max(rows, 2))))
            + p.wordline_nj_per_cell * data_bits
            + p.bitline_nj_per_column * data_bits * row_scale
            + p.tag_nj_per_bit * tag_bits * row_scale
        )
