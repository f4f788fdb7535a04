import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import nbqc.protograph

from nbqc.gf import MAX_Z
from nbqc.protograph import (
    DegreeProfile,
    Protograph,
    WalkEnumerationOverflow,
    WalkTable,
    _check_prefixes,
    _least_of_class,
    degree_profile,
    enumerate_closed_walks,
    from_base_matrix,
    read_base_matrix_text,
    signed_sums,
    write_base_matrix_text,
)

from oracles import (
    _canonical,
    _is_periodic,
    closed_walks_by_edge_dfs,
    count_closed_walks_by_node_dfs,
    count_prefixes_by_edge_dfs,
    least_of_class_by_position_loop,
    prefix_totals_by_edge_matrices,
    profile_deviation,
    ring_protograph,
    walk_major_signed_sums,
)


def test_from_base_matrix_multiplicity():
    p = from_base_matrix([[2]])
    assert p.n_edges == 2
    assert p.check_degree(0) == 2 and p.var_degree(0) == 2


def test_from_base_matrix_geometry(square22):
    assert square22.n_edges == 4
    assert square22.base_matrix() == [[1, 1], [1, 1]]


def test_ensemble_scale_matrix_accepted(ensemble1_matrix):
    p = from_base_matrix(ensemble1_matrix)
    assert (p.n_checks, p.n_vars) == (7, 14)
    assert p.n_edges == 34


def test_zero_row_and_column_rejected():
    with pytest.raises(ValueError):
        from_base_matrix([[1, 1], [0, 0]])
    with pytest.raises(ValueError):
        from_base_matrix([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        from_base_matrix([[1, -1]])
    with pytest.raises(ValueError):
        from_base_matrix([])


def test_edge_total_is_capped_before_any_edge(monkeypatch):
    # each cell within MAX_Z, one edge too many in all: refused before any
    # edge is built (a 100 x 100 matrix of MAX_Z cells would be 6.6e8)
    import nbqc.protograph

    def refuse(*args):
        raise AssertionError("built a protograph")

    monkeypatch.setattr(nbqc.protograph, "Protograph", refuse)
    with pytest.raises(ValueError, match="edge count 262145 "):
        from_base_matrix([[MAX_Z] * 4, [0, 0, 0, 1]])


def test_degree_profile_regular():
    # (2,4)-regular graph: lambda(x) = x, gamma(x) = x^3
    p = from_base_matrix([[1, 1, 1, 1], [1, 1, 1, 1]])
    prof = degree_profile(p)
    assert prof.lambda_coeffs == {2: pytest.approx(1.0)}
    assert prof.gamma_coeffs == {4: pytest.approx(1.0)}


def test_degree_profile_single_cycle(square22):
    prof = degree_profile(square22)
    assert prof.lambda_coeffs == {2: pytest.approx(1.0)}
    assert prof.gamma_coeffs == {2: pytest.approx(1.0)}


def test_degree_profile_ensemble1(ensemble1_matrix):
    prof = degree_profile(from_base_matrix(ensemble1_matrix))
    target = DegreeProfile(
        {2: 0.588, 3: 0.176, 4: 0.235},
        {4: 0.118, 5: 0.882},
    )
    assert profile_deviation(prof, target) < 5e-4


def test_degree_profile_ensemble2(ensemble2_matrix):
    prof = degree_profile(from_base_matrix(ensemble2_matrix))
    target = DegreeProfile(
        {2: 0.487, 3: 0.22, 4: 0.292},
        {5: 0.853, 6: 0.146},
    )
    assert profile_deviation(prof, target) < 1.5e-3


def test_profile_coefficients_sum_to_one(ensemble1_matrix):
    prof = degree_profile(from_base_matrix(ensemble1_matrix))
    assert sum(prof.lambda_coeffs.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(prof.gamma_coeffs.values()) == pytest.approx(1.0, abs=1e-9)


def test_single_4cycle_enumeration(square22):
    walks = enumerate_closed_walks(square22, 4)
    assert len(walks) == 1
    rec = walks[0]
    assert rec.length == 4 and rec.ace == 0 and rec.is_simple_minimal


def test_no_walks_beyond_the_single_cycle(square22):
    # degree-2 nodes force the unique cycle; deeper search finds nothing new
    walks = enumerate_closed_walks(square22, 12)
    assert len(walks) == 1


def test_parallel_pair_gives_2cycle():
    walks = enumerate_closed_walks(from_base_matrix([[2]]), 2)
    assert len(walks) == 1
    assert walks[0].length == 2
    assert not walks[0].is_simple_minimal


def test_k33_counts(theta23):
    walks = enumerate_closed_walks(from_base_matrix([[1, 1, 1]] * 3), 6)
    by_len = {}
    for w in walks:
        by_len[w.length] = by_len.get(w.length, 0) + 1
    assert by_len == {4: 9, 6: 6}


@pytest.mark.parametrize(
    "m,n,max_len", [(2, 2, 8), (2, 3, 8), (3, 3, 6), (3, 4, 6), (4, 4, 6),
                    (2, 3, 10), (3, 3, 10)]
)
def test_enumeration_matches_node_dfs_oracle(m, n, max_len):
    p = from_base_matrix([[1] * n] * m)
    walks = enumerate_closed_walks(p, max_len)
    got = {}
    for w in walks:
        got[w.length] = got.get(w.length, 0) + 1
    assert got == count_closed_walks_by_node_dfs(m, n, max_len)


def test_no_2cycles_on_simple_graphs(theta23):
    walks = enumerate_closed_walks(theta23, 8)
    assert all(w.length >= 4 for w in walks)


def test_canonicalization_idempotence(theta23):
    from oracles import _canonical

    for rec in enumerate_closed_walks(theta23, 8):
        seq = rec.edge_seq
        n = len(seq)
        for i in range(0, n, 2):
            assert _canonical(seq[i:] + seq[:i]) == seq
        assert _canonical(tuple(reversed(seq))) == seq


def test_ace_recomputed_from_adjacency(ensemble1_matrix):
    p = from_base_matrix(ensemble1_matrix)
    for rec in enumerate_closed_walks(p, 8):
        var_seq = [p.edge_var[e] for e in rec.edge_seq[0::2]]
        assert rec.ace == sum(p.var_degree(v) - 2 for v in var_seq)
        assert rec.ace >= 0
        if rec.ace == 0:
            assert all(p.var_degree(v) == 2 for v in var_seq)


def test_walk_structure_invariants(theta23):
    for p in (theta23, from_base_matrix([[2, 1], [1, 2]])):
        for rec in enumerate_closed_walks(p, 8):
            assert rec.length % 2 == 0
            for i in range(rec.length):
                e, nxt = rec.edge_seq[i], rec.edge_seq[(i + 1) % rec.length]
                # non-backtracking including the wrap
                assert e != nxt
                # an even edge hands its variable on, an odd edge its check
                side = p.edge_var if i % 2 == 0 else p.edge_check
                assert side[e] == side[nxt]


def test_simple_minimal_excludes_chorded_support():
    # 6-cycle whose three variables all meet a fourth check: no chords, OK
    clean = from_base_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    walks = enumerate_closed_walks(clean, 6)
    six = [w for w in walks if w.length == 6]
    assert len(six) == 1 and six[0].is_simple_minimal
    # adding a chord check edge breaks minimality of the 6-cycle support
    chorded = from_base_matrix([[1, 1, 1], [0, 1, 1], [1, 0, 1]])
    six = [w for w in enumerate_closed_walks(chorded, 6) if w.length == 6]
    assert six and not all(w.is_simple_minimal for w in six)


def test_overflow_guard_raises():
    p = from_base_matrix([[1, 1, 1, 1]] * 4)
    with pytest.raises(WalkEnumerationOverflow):
        enumerate_closed_walks(p, 8, max_prefixes=5)


_CAP_CASES = [
    ([[1, 1, 1], [1, 1, 1]], 12), ([[3, 1], [0, 1]], 10), ([[2]], 2),
    ([[2, 2], [1, 1]], 8), ([[1, 1, 1]] * 3, 8),
]


@pytest.mark.parametrize("rows, max_len", _CAP_CASES)
def test_prefix_cap_counts_every_prefix_grown(rows, max_len):
    p = from_base_matrix(rows)
    grown = count_prefixes_by_edge_dfs(p, max_len)
    want = enumerate_closed_walks(p, max_len)
    assert enumerate_closed_walks(p, max_len, max_prefixes=grown) == want
    with pytest.raises(WalkEnumerationOverflow):
        enumerate_closed_walks(p, max_len, max_prefixes=grown - 1)


def test_prefix_cap_fails_before_a_deep_search():
    # about 6.7e7 prefixes at depth 50: the cap refuses without growing any
    p = from_base_matrix([[1, 1, 1], [1, 1, 1]])
    with pytest.raises(WalkEnumerationOverflow, match="prefixes"):
        enumerate_closed_walks(p, 50)


def _multigraph_matrices():
    """Base matrices up to 3x3 with cells up to 3, no empty row or column."""
    shape = st.tuples(st.integers(1, 3), st.integers(1, 3))
    return shape.flatmap(lambda mn: st.lists(
        st.lists(st.integers(0, 3), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0],
    )).filter(lambda m: all(any(r) for r in m)
              and all(any(c) for c in zip(*m)) and sum(map(sum, m)) <= 8)


@settings(max_examples=100, deadline=None)
@given(rows=_multigraph_matrices(),
       max_len=st.sampled_from([2, 4, 6, 8, 10, 12, 16]))
def test_prefix_cap_decides_like_the_int64_matrix_count(rows, max_len):
    # a cap at every level's running total, and one below it: refused
    # exactly when the whole enumeration would grow more prefixes
    p = from_base_matrix(rows)
    totals = prefix_totals_by_edge_matrices(p, max_len)
    for cap in {t - below for t in totals for below in (0, 1)}:
        if totals[-1] > cap:
            with pytest.raises(WalkEnumerationOverflow, match=f"than {cap} "):
                _check_prefixes(p, max_len, cap)
        else:
            _check_prefixes(p, max_len, cap)


def test_prefix_cap_counts_the_first_level_before_any_edge_matrix():
    # 1001 edges at variable 0 give C(1001, 2) prefixes of length 2; one
    # more than the cap is refused before an 8 MB (edges x edges) array
    p = from_base_matrix([[1000, 1], [1, 1]])
    tracemalloc.start()
    try:
        with pytest.raises(WalkEnumerationOverflow):
            enumerate_closed_walks(p, 4, max_prefixes=1001 * 1000 // 2 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_prefix_cap_refuses_a_thick_cell_in_little_memory():
    # a 300 x 300 diagonal and 60 000 edges in one cell: a dense table of
    # each cell's edge ids would hold 301 * 301 * 60 000 int32, 22 GB; the
    # runs the cap reads are (edges) and (cells) long
    rows = [[int(i == j) for j in range(300)] for i in range(300)]
    rows[0][1] = 60000
    p = from_base_matrix(rows)
    tracemalloc.start()
    try:
        for max_len in (2, 4):
            with pytest.raises(WalkEnumerationOverflow):
                enumerate_closed_walks(p, max_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


@settings(max_examples=60, deadline=None)
@given(rows=_multigraph_matrices(), max_len=st.sampled_from([2, 4, 6, 8, 10]))
def test_enumeration_matches_recursive_dfs_oracle(rows, max_len):
    # edge words, their order, ACE and the simple-minimal flag, against the
    # recursive DFS with its set of least rotations
    p = from_base_matrix(rows)
    assert list(enumerate_closed_walks(p, max_len)) == \
        closed_walks_by_edge_dfs(p, max_len)


def _pairs_by_visit_loop(p, table):
    """``(pair_walk, p1, p2)`` by a double loop over each walk's visits:
    every two positions of one side (checks at even positions, variables at
    odd ones) that visit one node, in (walk, p1, p2) order."""
    found = []
    for w, word in enumerate(table.rows.tolist()):
        n = int(table.length[w])
        node = [(p.edge_var if q % 2 else p.edge_check)[word[q]] for q in range(n)]
        found += [(w, a, b) for a in range(n) for b in range(a + 2, n, 2)
                  if node[a] == node[b]]
    columns = np.array(found, np.int64).reshape(-1, 3).T
    return [c.astype(t) for c, t in zip(columns, (np.int32, np.int16, np.int16))]


@settings(max_examples=60, deadline=None)
@given(rows=_multigraph_matrices(),
       max_len=st.sampled_from([4, 6, 8, 10, 12]))
def test_pruned_enumeration_and_paired_compile_are_exact(rows, max_len):
    # cells up to 3 give parallel closing edges and a last open edge inside
    # the closing cell: the closing prune keeps every word the DFS finds,
    # and the compile's pairs are every same-side revisit, dtypes included.
    # Up to 2^17 unpruned prefixes keeps each recursive oracle call short.
    p = from_base_matrix(rows)
    try:
        table = enumerate_closed_walks(p, max_len, max_prefixes=1 << 17)
    except WalkEnumerationOverflow:
        assume(False)
    assert list(table) == closed_walks_by_edge_dfs(p, max_len)
    for got, want in zip((table.pair_walk, table.p1, table.p2),
                         _pairs_by_visit_loop(p, table)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_wide_rows_compile_in_bounded_memory():
    # 300 rows of the 400-edge ring: blocks sized from the width keep the
    # compile's temporaries small (256-row blocks of 400 x 400 positions
    # peaked at about 92 MiB)
    p = ring_protograph(200)
    ring = list(range(1, 400)) + [0]  # check 0 to var 1, ..., var 0 to check 0
    rows = np.tile(np.array(ring), (300, 1))
    tracemalloc.start()
    try:
        table = WalkTable(p, rows, np.full(300, 400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert table.simple_minimal.all() and len(table.pair_walk) == 0
    assert (table.ace == 0).all()


def _closed_words(p, max_len):
    """Every non-backtracking closed word of length <= max_len over edges
    >= its first edge, as the enumeration meets them, by length."""
    words = {}

    def grow(word):
        at_var = len(word) % 2
        e = word[-1]
        node = (p.edge_var if at_var else p.edge_check)[e]
        for f in (p.var_edges if at_var else p.check_edges)[node]:
            if f == e or f < word[0]:
                continue
            if at_var and p.edge_check[f] == p.edge_check[word[0]] \
                    and f != word[0]:
                words.setdefault(len(word) + 1, []).append(word + [f])
            if len(word) + 1 < max_len:
                grow(word + [f])

    for e0 in range(p.n_edges):
        grow([e0])
    return words


@settings(max_examples=60, deadline=None)
@given(rows=_multigraph_matrices(), max_len=st.sampled_from([2, 4, 6, 8]),
       seed=st.integers(0, 2**32 - 1))
def test_least_of_class_of_mixed_start_edges_keeps_what_per_e0_calls_keep(
        rows, max_len, seed):
    # one block of every start edge's closed words, shuffled, keeps exactly
    # what one call per start edge keeps: the least primitive words
    p = from_base_matrix(rows)
    rng = np.random.default_rng(seed)
    for words in _closed_words(p, max_len).values():
        block = rng.permutation(np.array(words, np.int16))
        per_e0 = np.zeros(len(block), bool)
        for e0 in np.unique(block[:, 0]):
            mine = block[:, 0] == e0
            per_e0[mine] = _least_of_class(block[mine])
        assert np.array_equal(_least_of_class(block), per_e0)
        assert per_e0.tolist() == [_canonical(w) == w and not _is_periodic(w)
                                   for w in map(tuple, block.tolist())]


@settings(max_examples=100, deadline=None)
@given(words=st.integers(1, 8).flatmap(lambda half: arrays(
    np.int16, st.tuples(st.integers(0, 30), st.just(2 * half)),
    elements=st.integers(0, 3))))
def test_least_of_class_matches_the_position_loop(words):
    # whole rotations decided at their first difference against the loop
    # that compares one position at a time; three edge ids give many
    # repeated first edges, ties and periodic words
    assert np.array_equal(_least_of_class(words),
                          least_of_class_by_position_loop(words))


def test_triple_cell_keeps_odd_period_words():
    # three parallel edges traversed cyclically repeat with period 3, which
    # does not split into closed walks: the word is primitive and kept
    p = from_base_matrix([[3]])
    walks = enumerate_closed_walks(p, 6)
    assert (0, 1, 2, 0, 1, 2) in [w.edge_seq for w in walks]
    assert walks == closed_walks_by_edge_dfs(p, 6)


def test_enumeration_deterministic_order(ensemble1_matrix):
    p = from_base_matrix(ensemble1_matrix)
    a = enumerate_closed_walks(p, 8)
    b = enumerate_closed_walks(p, 8)
    assert a == b
    lengths = [w.length for w in a]
    assert lengths == sorted(lengths)


_COLUMNS = ("rows", "length", "ace", "simple_minimal", "pair_walk", "p1", "p2")


@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocks_taken_first_to_last_need_no_sort(ensemble1_matrix,
                                                 ensemble2_matrix, block):
    # nothing sorts the words after the join: each F half takes its B
    # halves in the sorted B side's order, and the F are joined in
    # edge_seq order a block at a time.  At the default block size each
    # half length is one or a few blocks; 1-, 3- and 64-candidate blocks
    # split every join, and the table must not move
    for matrix in (ensemble1_matrix, ensemble2_matrix):
        want = enumerate_closed_walks(from_base_matrix(matrix), 10)
        keys = list(zip(want.length.tolist(), want.rows.tolist()))
        assert keys == sorted(keys)  # (length, edge_seq) order
        with mock.patch.object(nbqc.protograph, "_BLOCK", block):
            got = enumerate_closed_walks(from_base_matrix(matrix), 10)
        for name in _COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=60, deadline=None)
@given(rows=_multigraph_matrices(), max_len=st.sampled_from([4, 6, 8, 10]),
       block=st.sampled_from([1, 3, 64]))
def test_small_blocks_enumerate_what_the_dfs_oracle_finds(rows, max_len,
                                                          block):
    p = from_base_matrix(rows)
    with mock.patch.object(nbqc.protograph, "_BLOCK", block):
        try:
            table = enumerate_closed_walks(p, max_len, max_prefixes=1 << 15)
        except WalkEnumerationOverflow:
            assume(False)
    assert list(table) == closed_walks_by_edge_dfs(p, max_len)


def _oracle_table(p, max_len):
    """The recursive DFS oracle's walks compiled into a table, their rows
    padded as the enumeration pads them."""
    records = closed_walks_by_edge_dfs(p, max_len)
    rows = np.full((len(records), max((r.length for r in records), default=2)),
                   p.n_edges)
    for i, record in enumerate(records):
        rows[i, :record.length] = record.edge_seq
    return WalkTable(p, rows, [r.length for r in records])


def _assert_same_table(got, want):
    for name in _COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("rows, max_len", [
    # odd half lengths 3 and 5: the halves meet at a variable
    ([[1, 1, 1], [1, 1, 1]], 6), ([[1, 1, 1], [1, 1, 1]], 10),
    # two and three parallel edges: halves that end in one cell
    ([[2, 1], [1, 2]], 6), ([[2, 1], [1, 2]], 10),
    ([[3, 1], [1, 1]], 6), ([[3, 1], [1, 1]], 10),
    # one edge per half
    ([[3]], 2), ([[2, 2], [1, 1]], 2), ([[1, 1, 1], [1, 1, 1]], 2),
    # a variable of degree 1, at which no path goes on
    ([[2, 1, 1], [1, 1, 0]], 2), ([[2, 1, 1], [1, 1, 0]], 4),
    ([[2, 1, 1], [1, 1, 0]], 6), ([[2, 1, 1], [1, 1, 0]], 8),
])
def test_join_matches_the_dfs_oracle_byte_for_byte(rows, max_len):
    p = from_base_matrix(rows)
    _assert_same_table(enumerate_closed_walks(p, max_len),
                       _oracle_table(p, max_len))


@pytest.mark.parametrize("max_len", [6, 10])
def test_join_matches_the_dfs_oracle_on_the_reference_ensembles(
        ensemble1_matrix, ensemble2_matrix, max_len):
    for matrix in (ensemble1_matrix, ensemble2_matrix):
        p = from_base_matrix(matrix)
        _assert_same_table(enumerate_closed_walks(p, max_len),
                           _oracle_table(p, max_len))


@pytest.mark.parametrize("rows", [
    [[1, 1, 1], [1, 1, 1]], [[3, 1], [1, 2]], [[2, 1, 0], [1, 1, 2], [0, 2, 1]],
])
@pytest.mark.parametrize("max_len", [2, 6, 10])
def test_join_matches_the_dfs_oracle_with_permuted_edge_ids(rows, max_len):
    # every builder numbers a check's edges as one run of ids; here a check's
    # least edge is not the first id after the checks before it
    base = from_base_matrix(rows)
    perm = np.random.default_rng(5).permutation(base.n_edges)
    p = Protograph(base.n_checks, base.n_vars,
                   [(c, v, int(perm[e])) for e, (c, v)
                    in enumerate(zip(base.edge_check, base.edge_var))])
    assert any(es != list(range(es[0], es[0] + len(es)))
               for es in p.check_edges)
    _assert_same_table(enumerate_closed_walks(p, max_len),
                       _oracle_table(p, max_len))


@pytest.mark.parametrize("rows, max_len", _CAP_CASES + [([[1] * 4] * 4, 8)])
def test_prefix_cap_refuses_before_any_half_path_grows(monkeypatch, rows,
                                                       max_len):
    # the cap still counts the prefixes a level-wise enumeration grows: one
    # below that count is refused as before, and no half path grows first
    p = from_base_matrix(rows)
    grown = count_prefixes_by_edge_dfs(p, max_len)

    def refuse(*args):
        raise AssertionError("grew half paths")

    monkeypatch.setattr(nbqc.protograph, "_half_paths", refuse)
    with pytest.raises(WalkEnumerationOverflow, match=f"than {grown - 1} "):
        enumerate_closed_walks(p, max_len, max_prefixes=grown - 1)


@settings(max_examples=40, deadline=None)
@given(rows=_multigraph_matrices(), max_len=st.sampled_from([2, 6, 10, 14]),
       block=st.sampled_from([1, 7, nbqc.protograph._BLOCK]))
def test_join_matches_the_dfs_oracle_on_random_multigraphs(rows, max_len,
                                                           block):
    # odd and even half lengths, blocks of one candidate up to the default;
    # up to 2^16 level-wise prefixes keeps each oracle call short
    p = from_base_matrix(rows)
    with mock.patch.object(nbqc.protograph, "_BLOCK", block):
        try:
            table = enumerate_closed_walks(p, max_len, max_prefixes=1 << 16)
        except WalkEnumerationOverflow:
            assume(False)
    _assert_same_table(table, _oracle_table(p, max_len))


def test_join_memory_stays_at_the_level_wise_figure(ensemble2_matrix):
    # the GF(8) reference protograph at depth 14 (82 499 walks): the
    # level-wise enumeration that the join replaced peaked at 5 892 459
    # bytes under tracemalloc (numpy 2.4), the join at about 5.62e6
    p = from_base_matrix(ensemble2_matrix)
    tracemalloc.start()
    try:
        table = enumerate_closed_walks(p, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 82499
    assert peak <= 5_892_459


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_position_major_sums_hold_the_walk_major_bytes(data):
    # signed_sums lays P out position-major; read transposed, its bytes are
    # those of the walk-major cumulative sum, wrapping included
    kind = data.draw(st.sampled_from([np.int16, np.int32]))
    dtype = data.draw(st.sampled_from([np.int16, np.int32]))
    shape = st.tuples(st.integers(0, 40), st.integers(1, 16))
    terms = data.draw(arrays(kind, shape))
    got = signed_sums(terms, dtype)
    want = walk_major_signed_sums(terms, dtype)
    assert got.dtype == want.dtype and got.shape == want.T.shape
    assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()


def test_base_matrix_text_roundtrip(ensemble1_matrix):
    text = write_base_matrix_text(ensemble1_matrix)
    assert read_base_matrix_text(text) == ensemble1_matrix


def test_max_len_must_be_even(square22):
    with pytest.raises(ValueError):
        enumerate_closed_walks(square22, 5)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4)])
def test_enumeration_matches_node_dfs_oracle_depth8(m, n):
    p = from_base_matrix([[1] * n] * m)
    walks = enumerate_closed_walks(p, 8)
    got = {}
    for w in walks:
        got[w.length] = got.get(w.length, 0) + 1
    assert got == count_closed_walks_by_node_dfs(m, n, 8)
