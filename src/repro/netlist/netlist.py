"""The :class:`Netlist` container: cells + nets + cascade macros."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import NetlistValidationError
from repro.netlist.cell import Cell, CellType
from repro.netlist.macros import CascadeMacro
from repro.netlist.net import Net


@dataclass(frozen=True)
class NetlistStats:
    """Resource summary in the shape of the paper's Table I."""

    name: str
    n_lut: int
    n_lutram: int
    n_ff: int
    n_carry: int
    n_bram: int
    n_dsp: int
    n_io: int
    n_nets: int
    dsp_capacity: int | None = None
    target_freq_mhz: float | None = None

    @property
    def n_cells(self) -> int:
        return (
            self.n_lut
            + self.n_lutram
            + self.n_ff
            + self.n_carry
            + self.n_bram
            + self.n_dsp
            + self.n_io
        )

    @property
    def dsp_pct(self) -> float | None:
        """DSP utilisation against the device capacity (Table I "DSP%")."""
        if not self.dsp_capacity:
            return None
        return self.n_dsp / self.dsp_capacity


class Netlist:
    """A pre-implementation netlist.

    Cells and nets are stored densely and referenced by integer index.
    Construction is append-only: build with :meth:`add_cell` / :meth:`add_net`
    / :meth:`add_macro`, then :meth:`validate`.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.cells: list[Cell] = []
        self.nets: list[Net] = []
        self.macros: list[CascadeMacro] = []
        self._cell_names: dict[str, int] = {}
        self.target_freq_mhz: float | None = None
        #: structural revision counter; bumped by add_cell/add_net/add_macro so
        #: derived caches (repro.netlist.csr.NetlistCSR) know when to rebuild
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        ctype: CellType,
        *,
        is_datapath: bool | None = None,
        fixed_xy: tuple[float, float] | None = None,
        attrs: dict | None = None,
    ) -> int:
        """Append a cell and return its index."""
        if name in self._cell_names:
            raise ValueError(f"duplicate cell name {name!r}")
        index = len(self.cells)
        cell = Cell(
            index=index,
            name=name,
            ctype=ctype,
            is_datapath=is_datapath,
            fixed_xy=fixed_xy,
            attrs=attrs or {},
        )
        self.cells.append(cell)
        self._cell_names[name] = index
        self._version += 1
        return index

    def add_net(self, name: str, driver: int, sinks: Iterable[int], weight: float = 1.0) -> int:
        """Append a net and return its index; duplicate sinks are collapsed."""
        unique_sinks = tuple(dict.fromkeys(int(s) for s in sinks if s != driver))
        if not unique_sinks:
            raise ValueError(f"net {name!r} has no sinks distinct from its driver")
        for idx in (driver, *unique_sinks):
            if not 0 <= idx < len(self.cells):
                raise IndexError(f"net {name!r} references unknown cell index {idx}")
        index = len(self.nets)
        self.nets.append(Net(index=index, name=name, driver=driver, sinks=unique_sinks, weight=weight))
        self._version += 1
        return index

    def add_macro(self, dsp_indices: Iterable[int]) -> int:
        """Register a DSP cascade macro over already-added DSP cells."""
        chain = tuple(int(i) for i in dsp_indices)
        macro_id = len(self.macros)
        for idx in chain:
            cell = self.cells[idx]
            if not cell.ctype.is_dsp:
                raise ValueError(f"macro member {cell.name!r} is not a DSP")
            if cell.macro_id is not None:
                raise ValueError(f"DSP {cell.name!r} already belongs to macro {cell.macro_id}")
            cell.macro_id = macro_id
        self.macros.append(CascadeMacro(macro_id=macro_id, dsps=chain))
        self._version += 1
        return macro_id

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def cell_by_name(self, name: str) -> Cell:
        return self.cells[self._cell_names[name]]

    def cells_of_type(self, ctype: CellType) -> list[Cell]:
        return [c for c in self.cells if c.ctype is ctype]

    def dsp_indices(self) -> list[int]:
        from repro.netlist.csr import get_csr  # csr imports this module

        return get_csr(self).dsp_indices.tolist()

    def movable_indices(self) -> list[int]:
        return [c.index for c in self.cells if not c.is_fixed]

    def cascade_pairs(self) -> list[tuple[int, int]]:
        """All (predecessor, successor) cascaded DSP pairs across macros (set C in eq. 5)."""
        pairs: list[tuple[int, int]] = []
        for macro in self.macros:
            pairs.extend(macro.pairs())
        return pairs

    def nets_of_cell(self) -> list[list[int]]:
        """Per-cell list of incident net indices."""
        incident: list[list[int]] = [[] for _ in self.cells]
        for net in self.nets:
            for idx in net.cells:
                incident[idx].append(net.index)
        return incident

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Directed driver→sink edges with net weights (fanout-normalised)."""
        for net in self.nets:
            w = net.weight / len(net.sinks)
            for sink in net.sinks:
                yield net.driver, sink, w

    # ------------------------------------------------------------------
    # validation and stats
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistValidationError`
        (a ``ValueError`` subclass) on the first violation. For a full list
        of problems plus device cross-checks, see
        :func:`repro.netlist.validate.netlist_problems`."""
        seen_macro_members: set[int] = set()
        for macro in self.macros:
            macro.validate()
            for idx in macro.dsps:
                if idx in seen_macro_members:
                    raise NetlistValidationError(f"DSP index {idx} appears in two macros")
                seen_macro_members.add(idx)
                if self.cells[idx].macro_id != macro.macro_id:
                    raise NetlistValidationError(f"cell {idx} macro_id out of sync")
        for net in self.nets:
            for idx in net.cells:
                if not 0 <= idx < len(self.cells):
                    raise NetlistValidationError(
                        f"net {net.name!r} references unknown cell {idx}"
                    )
        if len(self._cell_names) != len(self.cells):
            raise NetlistValidationError("cell name map out of sync")

    def stats(self, dsp_capacity: int | None = None) -> NetlistStats:
        counts = Counter(c.ctype for c in self.cells)
        return NetlistStats(
            name=self.name,
            n_lut=counts[CellType.LUT],
            n_lutram=counts[CellType.LUTRAM],
            n_ff=counts[CellType.FF],
            n_carry=counts[CellType.CARRY],
            n_bram=counts[CellType.BRAM],
            n_dsp=counts[CellType.DSP],
            n_io=counts[CellType.IO] + counts[CellType.PS],
            n_nets=len(self.nets),
            dsp_capacity=dsp_capacity,
            target_freq_mhz=self.target_freq_mhz,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name!r}, cells={len(self.cells)}, nets={len(self.nets)})"
