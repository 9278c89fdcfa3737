"""Unit tests for the vectorized executor (and the hand-built-program
helper shared with the instrumentation tests)."""

import numpy as np
import pytest

from repro.target import (NO_CRASH, NO_LOOP, NO_PARENT, Executor, Guard,
                          MAX_MAGIC_WIDTH, Program, _build_csr)


def build_program(edges, input_len=32, name="hand-built",
                  static_edges=None):
    """Construct a Program from a list of edge dicts.

    Recognized keys (all optional): ``kind``, ``parent``, ``off``,
    ``val``, ``width``, ``magic``, ``loop_off``, ``loop_cap``,
    ``crash``. Defaults give an unguarded root edge.
    """
    n = len(edges)
    parent = np.array([e.get("parent", NO_PARENT) for e in edges],
                      dtype=np.int64)
    kind = np.array([e.get("kind", Guard.ALWAYS) for e in edges],
                    dtype=np.uint8)
    off = np.array([e.get("off", 0) for e in edges], dtype=np.int32)
    val = np.array([e.get("val", 0) for e in edges], dtype=np.uint8)
    width = np.array([e.get("width", 1) for e in edges], dtype=np.int32)
    magic = np.zeros((n, MAX_MAGIC_WIDTH), dtype=np.uint8)
    for i, e in enumerate(edges):
        operand = e.get("magic", ())
        magic[i, :len(operand)] = operand
    loop_off = np.array([e.get("loop_off", NO_LOOP) for e in edges],
                        dtype=np.int32)
    loop_cap = np.array([e.get("loop_cap", 1) for e in edges],
                        dtype=np.int64)
    crash = np.array([e.get("crash", NO_CRASH) for e in edges],
                     dtype=np.int32)

    depth = np.zeros(n, dtype=np.int32)
    for i in range(n):
        if parent[i] != NO_PARENT:
            depth[i] = depth[parent[i]] + 1
    dst_block = np.arange(1, n + 1, dtype=np.int64)
    src_block = np.where(parent == NO_PARENT, 0,
                         dst_block[np.maximum(parent, 0)])
    child_off, child_idx = _build_csr(parent, n)
    program = Program(
        name=name, input_len=input_len, parent=parent, depth=depth,
        kind=kind, off=off, val=val, width=width, magic=magic,
        loop_off=loop_off, loop_cap=loop_cap, src_block=src_block,
        dst_block=dst_block, crash_site=crash, child_off=child_off,
        child_idx=child_idx,
        roots=np.flatnonzero(parent == NO_PARENT), n_blocks=n + 1,
        static_edges=static_edges or n, meta={})
    program.validate()
    return program


@pytest.fixture()
def five_edge_program():
    """Root → {BYTE_LT child, BYTE_EQ child}; the LT child has an
    ALWAYS grandchild carrying a loop; plus one NEVER leaf."""
    return build_program([
        {"kind": Guard.ALWAYS},
        {"kind": Guard.BYTE_LT, "parent": 0, "off": 1, "val": 100},
        {"kind": Guard.BYTE_EQ, "parent": 0, "off": 2, "val": 7},
        {"kind": Guard.ALWAYS, "parent": 1, "loop_off": 3,
         "loop_cap": 8},
        {"kind": Guard.NEVER, "parent": 0},
    ])


class TestTraceCorrectness:
    def test_all_guards_satisfied(self, five_edge_program):
        ex = Executor(five_edge_program)
        r = ex.execute(bytes([0, 50, 7, 5]))
        assert r.edges.tolist() == [0, 1, 2, 3]
        # Loop edge 3: 1 + inp[3] % 8 = 6; others hit once.
        assert r.counts.tolist() == [1, 1, 1, 6]
        assert r.traversals == 9
        assert r.crash is None

    def test_guards_block_subtrees(self, five_edge_program):
        ex = Executor(five_edge_program)
        r = ex.execute(bytes([0, 200, 9, 0]))
        # LT fails (200 >= 100) so its child never runs; EQ fails too.
        assert r.edges.tolist() == [0]
        assert r.traversals == 1

    def test_never_edge_never_taken(self, five_edge_program):
        ex = Executor(five_edge_program)
        for data in (bytes(4), bytes([255] * 4), bytes([0, 50, 7, 5])):
            assert 4 not in ex.execute(data).edges.tolist()

    def test_short_input_zero_padded(self, five_edge_program):
        ex = Executor(five_edge_program)
        # Missing bytes read as zero: LT passes (0 < 100), EQ fails.
        r = ex.execute(b"")
        assert r.edges.tolist() == [0, 1, 3]

    def test_long_input_truncated(self, five_edge_program):
        ex = Executor(five_edge_program)
        a = ex.execute(bytes([0, 50, 7, 5]))
        b = ex.execute(bytes([0, 50, 7, 5]) + bytes(100))
        assert a.edges.tolist() == b.edges.tolist()

    def test_n_edges_property(self, five_edge_program):
        r = Executor(five_edge_program).execute(bytes(4))
        assert r.n_edges == r.edges.size


class TestMagicGating:
    def test_subtree_locked_until_magic_present(self):
        program = build_program([
            {"kind": Guard.ALWAYS},
            {"kind": Guard.EQ_MULTI, "parent": 0, "off": 4, "width": 4,
             "magic": [0xCA, 0xFE, 0xBA, 0xBE]},
            {"kind": Guard.ALWAYS, "parent": 1},
            {"kind": Guard.ALWAYS, "parent": 2},
        ], input_len=16)
        ex = Executor(program)
        locked = ex.execute(bytes(16))
        assert locked.edges.tolist() == [0]
        almost = bytearray(16)
        almost[4:8] = b"\xca\xfe\xba\xbd"  # last byte off by one
        assert ex.execute(bytes(almost)).edges.tolist() == [0]
        unlocked = bytearray(16)
        unlocked[4:8] = b"\xca\xfe\xba\xbe"
        assert ex.execute(bytes(unlocked)).edges.tolist() == [0, 1, 2, 3]

    def test_magic_mask_vs_discoverable(self):
        program = build_program([
            {"kind": Guard.ALWAYS},
            {"kind": Guard.EQ_MULTI, "parent": 0, "off": 0, "width": 2,
             "magic": [1, 2]},
            {"kind": Guard.ALWAYS, "parent": 1},
            {"kind": Guard.NEVER, "parent": 0},
        ], input_len=16)
        assert program.discoverable_mask().tolist() == \
            [True, True, True, False]
        assert program.practically_discoverable_mask().tolist() == \
            [True, False, False, False]


class TestCrashes:
    def test_crash_site_triggers(self):
        program = build_program([
            {"kind": Guard.ALWAYS},
            {"kind": Guard.BYTE_EQ, "parent": 0, "off": 0, "val": 66,
             "crash": 3},
        ])
        ex = Executor(program)
        assert ex.execute(bytes(4)).crash is None
        r = ex.execute(bytes([66, 0]))
        assert r.crash is not None
        assert r.crash.site_id == 3
        assert r.crash.edge_index == 1
        assert r.crash.stack == (1, 2)

    def test_crash_truncates_deeper_trace(self):
        program = build_program([
            {"kind": Guard.ALWAYS},
            {"kind": Guard.ALWAYS, "parent": 0, "crash": 0},
            {"kind": Guard.ALWAYS, "parent": 1},
            {"kind": Guard.ALWAYS, "parent": 2},
        ])
        r = Executor(program).execute(bytes(4))
        # Execution stops at the crashing edge (depth 1).
        assert r.edges.tolist() == [0, 1]

    def test_first_crash_in_execution_order_wins(self):
        program = build_program([
            {"kind": Guard.ALWAYS},
            {"kind": Guard.ALWAYS, "parent": 0, "crash": 7},
            {"kind": Guard.ALWAYS, "parent": 1, "crash": 2},
        ])
        r = Executor(program).execute(bytes(4))
        assert r.crash.site_id == 7

    def test_crash_dedup_key_stable(self):
        program = build_program([{"kind": Guard.ALWAYS, "crash": 1}])
        ex = Executor(program)
        a = ex.execute(bytes(4)).crash
        b = ex.execute(bytes([9] * 4)).crash
        assert a.crashwalk_key() == b.crashwalk_key()
        assert a.fault_address == b.fault_address


class TestDeterminism:
    def test_executor_is_pure(self, five_edge_program):
        ex = Executor(five_edge_program)
        data = bytes([0, 50, 7, 200])
        first = ex.execute(data)
        for _ in range(3):
            again = ex.execute(data)
            assert np.array_equal(first.edges, again.edges)
            assert np.array_equal(first.counts, again.counts)
            assert first.traversals == again.traversals
