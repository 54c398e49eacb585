"""IDDFS DSP path search vs BFS ground truth."""

import networkx as nx

from repro.core.extraction import iddfs_dsp_paths
from repro.netlist import CellType, Netlist
from tests.oracles.iddfs import iddfs_dsp_paths_reference


class TestIDDFSBasics:
    def test_direct_connection(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("n", a, [b])
        paths = iddfs_dsp_paths(nl)
        assert any(p.src == a and p.dst == b and p.dist == 1 for p in paths)

    def test_respects_direction(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("n", a, [b])
        paths = iddfs_dsp_paths(nl)
        assert not any(p.src == b and p.dst == a for p in paths)

    def test_through_logic(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        l1 = nl.add_cell("l1", CellType.LUT)
        f = nl.add_cell("f", CellType.FF)
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("n0", a, [l1])
        nl.add_net("n1", l1, [f])
        nl.add_net("n2", f, [b])
        (p,) = iddfs_dsp_paths(nl)
        assert (p.src, p.dst, p.dist) == (a, b, 3)
        assert p.n_storage == 1  # the FF

    def test_does_not_pass_through_dsps(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        mid = nl.add_cell("m", CellType.DSP)
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("n0", a, [mid])
        nl.add_net("n1", mid, [b])
        paths = {(p.src, p.dst) for p in iddfs_dsp_paths(nl)}
        assert (a, mid) in paths and (mid, b) in paths
        assert (a, b) not in paths  # would have to pass through mid

    def test_depth_cutoff(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        prev = a
        for i in range(5):
            l = nl.add_cell(f"l{i}", CellType.LUT)
            nl.add_net(f"n{i}", prev, [l])
            prev = l
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("last", prev, [b])
        assert iddfs_dsp_paths(nl, max_depth=3) == []
        assert len(iddfs_dsp_paths(nl, max_depth=6)) == 1

    def test_high_fanout_nets_skipped(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        sinks = [nl.add_cell(f"s{i}", CellType.LUT) for i in range(30)]
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("wide", a, sinks)
        nl.add_net("n", sinks[0], [b])
        assert iddfs_dsp_paths(nl, max_fanout=16) == []
        assert len(iddfs_dsp_paths(nl, max_fanout=64)) == 1

    def test_sources_restriction(self):
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        b = nl.add_cell("b", CellType.DSP)
        c = nl.add_cell("c", CellType.DSP)
        nl.add_net("n0", a, [b])
        nl.add_net("n1", b, [c])
        paths = iddfs_dsp_paths(nl, sources=[a])
        assert {p.src for p in paths} == {a}


class TestEarlyExit:
    def test_deepening_stops_when_frontier_exhausted(self):
        """Regression for the dead ``continue``: once no node sits exactly at
        the current depth limit, deeper limits cannot discover anything and
        the IDDFS oracle must stop deepening."""
        from tests.oracles.iddfs import iddfs_single_source

        # diameter-2 reachable set, but a huge max_depth
        nl = Netlist("short")
        a = nl.add_cell("a", CellType.DSP)
        l1 = nl.add_cell("l1", CellType.LUT)
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("n0", a, [l1])
        nl.add_net("n1", l1, [b])
        adj = [[] for _ in nl.cells]
        for net in nl.nets:
            adj[net.driver].extend(net.sinks)
        is_dsp = [c.ctype.is_dsp for c in nl.cells]
        is_storage = [c.ctype.is_storage for c in nl.cells]
        found, deepest = iddfs_single_source(adj, is_dsp, is_storage, a, max_depth=50)
        assert found == {b: (2, 0)}
        assert deepest <= 3  # stopped as soon as the limit overshot the reach

    def test_early_exit_does_not_truncate_results(self):
        """The break must fire only when deepening is genuinely exhausted: a
        long chain still yields its full-depth path."""
        nl = Netlist("chain")
        a = nl.add_cell("a", CellType.DSP)
        prev = a
        for i in range(5):
            l = nl.add_cell(f"l{i}", CellType.LUT)
            nl.add_net(f"n{i}", prev, [l])
            prev = l
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("last", prev, [b])
        (p,) = iddfs_dsp_paths_reference(nl, max_depth=6)
        assert (p.src, p.dst, p.dist) == (a, b, 6)


def test_iddfs_distances_match_bfs(mini_accel):
    """Property on a real generated netlist: IDDFS distances equal BFS
    shortest distances on the fanout-filtered DSP-free digraph."""
    max_fanout, max_depth = 16, 5
    g = nx.DiGraph()
    for i, _c in enumerate(mini_accel.cells):
        g.add_node(i)
    for net in mini_accel.nets:
        if len(net.sinks) > max_fanout:
            continue
        for s in net.sinks:
            g.add_edge(net.driver, s)
    is_dsp = {c.index for c in mini_accel.cells if c.ctype.is_dsp}

    paths = iddfs_dsp_paths(mini_accel, max_depth=max_depth, max_fanout=max_fanout)
    got = {(p.src, p.dst): p.dist for p in paths}

    # BFS reference: shortest path not passing through intermediate DSPs
    import collections

    for src in list(is_dsp)[:10]:
        dist = {src: 0}
        q = collections.deque([src])
        while q:
            u = q.popleft()
            if u != src and u in is_dsp:
                continue  # do not expand through DSPs
            for v in g.successors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        for dst in is_dsp:
            if dst == src:
                continue
            d = dist.get(dst)
            if d is not None and d <= max_depth:
                assert got.get((src, dst)) == d, (src, dst)
            else:
                assert (src, dst) not in got
