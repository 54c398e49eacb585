"""Baseline FPGA placers.

The paper compares DSPlacer against AMD Xilinx Vivado 2020.2 and AMF-Placer
2.0, and uses one of them to produce the prototype placement DSPlacer
iterates on. Neither tool is available offline, so this package implements
stand-ins that exercise the same role:

- :class:`~repro.placers.vivado_like.VivadoLikePlacer` — a competent
  wirelength/timing-weighted analytical placer (quadratic global placement,
  density spreading, macro-aware legalization, swap refinement).
- :class:`~repro.placers.amf_like.AMFLikePlacer` — a mixed-size analytical
  placer modelling AMF-Placer 2.0's published behaviour on ZCU104: strong
  macro packing, but no PS-corner awareness (it was tuned for the PS-less
  VCU108), which displaces logic during legalization and disorders the
  PS↔PL datapath.

Both share one engine per stage: global placement by
:class:`~repro.placers.analytical.QuadraticGlobalPlacer`, site legalization
by :class:`~repro.placers.legalizer.Legalizer`, and detailed placement by
:func:`~repro.placers.detailed.refine_sites`. Their loop oracles live in
``tests/oracles/``.

All engines (and DSPlacer, through its adapter) conform to the unified
:class:`~repro.placers.api.Placer` protocol: bind the device at
construction, then ``place(netlist, *, seed=...)``. See
:func:`~repro.placers.api.get_placer`.
"""

from repro.placers.api import PLACER_NAMES, DSPlacerAdapter, Placer, get_placer
from repro.placers.placement import Placement
from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.legalizer import Legalizer
from repro.placers.detailed import refine_sites
from repro.placers.packing import apply_packing, pack_lut_ff_pairs
from repro.placers.vivado_like import VivadoLikePlacer
from repro.placers.amf_like import AMFLikePlacer

__all__ = [
    "Placer",
    "DSPlacerAdapter",
    "get_placer",
    "PLACER_NAMES",
    "Placement",
    "GlobalPlaceConfig",
    "QuadraticGlobalPlacer",
    "Legalizer",
    "refine_sites",
    "apply_packing",
    "pack_lut_ff_pairs",
    "VivadoLikePlacer",
    "AMFLikePlacer",
]
