"""Loop-reference oracles for the vectorized production engines.

Each module here holds the straightforward per-cell / per-net / per-edge
loop version of one production kernel. The loops are slow but easy to
check by eye, so the equivalence suites pin every vectorized engine to
them (1e-9, bitwise or site-identical, as each suite states):

- :class:`~tests.oracles.sta.ReferenceSTA` — ``StaticTimingAnalyzer``
  with the per-cell arrival / required-time loops (``_analyze`` hook).
- :class:`~tests.oracles.router.ReferencePatternRouter` — ``PatternRouter``
  with per-connection negotiation (``_negotiate`` hook), plus
  :func:`~tests.oracles.router.candidate_paths`.
- :class:`~tests.oracles.legalizer.ReferenceLegalizer` — ``Legalizer``
  with per-cell nearest-site and spiral CLB probes (``_assign_singles`` /
  ``_fill_clb_batched`` hooks).
- :class:`~tests.oracles.spread.ReferenceSpreadPlacer` —
  ``QuadraticGlobalPlacer`` with the per-slab equalization loop
  (``_spread`` hook).
- :func:`~tests.oracles.refine.refine_sites_reference` — the per-cell ×
  per-candidate × per-net ``refine_sites`` loop.
- :func:`~tests.oracles.b2b.b2b_adjacency_reference` — per-net B2B
  assembly, same inputs as ``b2b_adjacency``.
- :func:`~tests.oracles.iddfs.iddfs_dsp_paths_reference` — the paper's
  per-source IDDFS, same inputs as ``iddfs_dsp_paths``.
- :func:`~tests.oracles.features.extract_node_features_networkx` — the
  networkx feature extraction, same inputs as ``extract_node_features``.
- :mod:`tests.oracles.graph` — networkx graph views of a netlist and the
  per-net ``connectivity_matrix`` loop.
- :class:`~tests.oracles.mcf.MinCostFlow` and
  :func:`~tests.oracles.mcf.min_cost_assignment_ssp` — successive shortest
  paths, same inputs as ``min_cost_assignment``.

Class oracles subclass the production engine and override one private
hook, so everything outside the hook (graph build, span, metrics) is the
production code path.
"""
