import random
from itertools import combinations, product

import pytest

from ydweyl import weylgraph
from ydweyl.errors import ResourceBoundError, ValidationError
from ydweyl.groupdata import make_abelian_group, sign_cocycle
from ydweyl.weylgraph import (CartanTypeResult, SemiCartanGraph, Vertex,
                              _root_classes, build_cartan_graph, check_axioms,
                              finite_cartan_type,
                              infinite_dim_certificate, is_finite,
                              is_generalized_cartan, is_standard, real_roots,
                              to_dot)
from ydweyl.ydcat import ModuleTuple, preset_module
from oracles import (cartan_catalog, degree_orbit, generator_morphism,
                     morphism_root_sets, oracle_cartan_type,
                     quotient_graph, reference_real_roots, root_classes,
                     root_counts)


@pytest.fixture(scope="module")
def w_graph(w_triple):
    return build_cartan_graph(w_triple)


@pytest.fixture(scope="module")
def pair_graph(w_pair):
    return build_cartan_graph(w_pair)


def test_w_graph_closes_with_axioms(w_graph):
    assert check_axioms(w_graph).ok
    assert is_standard(w_graph)
    affine = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert all(v.cartan == affine for v in w_graph.vertices)


def test_w_graph_vertex_count_matches_degree_oracle(z2cubed, w_triple, w_graph):
    group, _ = z2cubed
    start = [m.degrees[0] for m in w_triple]
    assert w_graph.vertex_count() == len(degree_orbit(group, start)) == 24


def test_single_module_graph(w_presets):
    g = build_cartan_graph(ModuleTuple([w_presets[1]]))
    assert g.vertex_count() == 1
    assert check_axioms(g).ok
    assert g.cartan(0) == [[2]]
    roots, truncated = real_roots(g, 50)
    assert roots == {0: [(-1,), (1,)]} and not truncated
    result = is_finite(g, 50)
    assert result.is_finite() and root_counts(result)[0] == 2


def test_pair_graph_roots(pair_graph):
    assert check_axioms(pair_graph).ok
    assert pair_graph.cartan(0) == [[2, -1], [-1, 2]]
    roots, truncated = real_roots(pair_graph, 50)
    assert not truncated
    assert sorted(roots) == [v.vid for v in pair_graph.vertices]
    for rs in roots.values():
        assert set(rs) == {(1, 0), (0, 1), (1, 1),
                           (-1, 0), (0, -1), (-1, -1)}
    result = is_finite(pair_graph, 50)
    assert result.is_finite()
    assert all(c == 6 for c in root_counts(result).values())


def test_roots_closed_under_negation_contain_simples(pair_graph, w_graph):
    for graph in (pair_graph,):
        roots, _ = real_roots(graph, 50)
        rootset = set(roots[0])
        for r in rootset:
            assert tuple(-x for x in r) in rootset
        theta = graph.theta
        for j in range(theta):
            assert tuple(1 if k == j else 0 for k in range(theta)) in rootset


def test_w_graph_not_finite_within_bounds(w_graph):
    for bound in (10, 25, 50):
        result = is_finite(w_graph, bound)
        assert result.status == "not-finite-within-bound"
    roots, truncated = real_roots(w_graph, 50)
    assert truncated and roots == {}


def _hand_built(cartans, reflections):
    """A graph given by its Cartan matrices and reflections (i, vid) -> vid."""
    return SemiCartanGraph(
        theta=len(cartans[0]),
        vertices=[Vertex(vid, None, A)
                  for vid, A in enumerate(cartans)],
        reflections=reflections)


# Standard B2 at one vertex: its largest root coordinate is 2.
B2 = _hand_built([[[2, -2], [-1, 2]]], {(0, 0): 0, (1, 0): 0})

# A finite non-standard rank-2 graph: r_1 fixes v0 and swaps v1, v2; r_2
# swaps v0, v1 and fixes v2.  Its vertex maxima are 3, 2 and 2.
NONSTANDARD = _hand_built(
    [[[2, -1], [-2, 2]], [[2, -1], [-2, 2]], [[2, -1], [-1, 2]]],
    {(0, 0): 0, (0, 1): 2, (0, 2): 1, (1, 0): 1, (1, 1): 0, (1, 2): 2})


# The A3 matrix at one vertex: 12 roots.
A3 = _hand_built([[[2, -1, 0], [-1, 2, -1], [0, -1, 2]]],
                 {(i, 0): 0 for i in range(3)})


def test_b2_truncation_is_the_largest_coordinate():
    assert check_axioms(B2).ok
    assert real_roots(B2, 1) == ({}, True)
    assert is_finite(B2, 1).status == "not-finite-within-bound"
    roots, truncated = real_roots(B2, 2)
    assert not truncated and len(roots[0]) == 8
    result = is_finite(B2, 2)
    assert result.is_finite() and root_counts(result) == {0: 8}


def test_nonstandard_graph_truncates_every_vertex_together():
    assert check_axioms(NONSTANDARD).ok and not is_standard(NONSTANDARD)
    roots, truncated = real_roots(NONSTANDARD, 3)
    assert not truncated
    assert [max(abs(x) for r in roots[vid] for x in r)
            for vid in range(3)] == [3, 2, 2]
    assert all(len(rs) == 12 for rs in roots.values())
    # v1 and v2 fit in the box at bound 2, but v0 does not: the closure
    # reports no vertex's list.
    assert real_roots(NONSTANDARD, 2) == ({}, True)
    assert is_finite(NONSTANDARD, 2).status == "not-finite-within-bound"
    assert root_counts(is_finite(NONSTANDARD, 3)) == {0: 12, 1: 12, 2: 12}


def test_closure_matches_morphism_oracle(pair_graph):
    for graph in (B2, NONSTANDARD, pair_graph):
        roots, truncated = real_roots(graph, 50)
        assert not truncated
        assert {vid: set(rs) for vid, rs in roots.items()} \
            == morphism_root_sets(graph)


def test_reflection_matrices_compose_to_identity(w_graph, pair_graph):
    for graph in (w_graph, pair_graph):
        ident = tuple(tuple(1 if r == c else 0 for c in range(graph.theta))
                      for r in range(graph.theta))
        for (i, vid), rid in graph.reflections.items():
            s_x = generator_morphism(graph, i, vid)
            s_rx = generator_morphism(graph, i, rid)
            # s_i^X o s_i^{r_i(X)} = id since the i-th rows agree (CG2);
            # the composite is the identity endomorphism at r_i(X).
            composed = s_x.compose(s_rx)
            assert composed.matrix == ident
            assert composed.source == rid and composed.target == rid


def test_groupoid_morphism_endpoints_guard(pair_graph):
    from ydweyl.errors import ValidationError
    a = generator_morphism(pair_graph, 0, 0)
    b = generator_morphism(pair_graph, 1, 0)
    if a.source != b.target:
        with pytest.raises(ValidationError):
            a.compose(b)


def test_vertex_bound_raises(w_triple):
    with pytest.raises(ResourceBoundError):
        build_cartan_graph(w_triple, vertex_bound=5)


def test_check_axioms_detects_cg2_violation(pair_graph):
    import copy
    broken = copy.deepcopy(pair_graph)
    broken.vertices[1].cartan = [[2, -2], [-1, 2]]
    report = check_axioms(broken)
    assert not report.ok
    assert any("CG2" in v for v in report.violations)


def test_gcm_validation():
    assert is_generalized_cartan([[2, -1], [-1, 2]]).ok
    assert not is_generalized_cartan([[2, 1], [-1, 2]]).ok
    assert not is_generalized_cartan([[2, 0], [-1, 2]]).ok
    assert not is_generalized_cartan([[1, 0], [0, 2]]).ok


def test_finite_type_classification():
    a2 = finite_cartan_type([[2, -1], [-1, 2]])
    assert a2.is_finite_type and a2.components == ["A2"]
    affine = finite_cartan_type([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert not affine.is_finite_type
    a1a1 = finite_cartan_type([[2, 0], [0, 2]])
    assert a1a1.components == ["A1", "A1"]
    g2 = finite_cartan_type([[2, -1], [-3, 2]])
    assert g2.components == ["G2"]
    assert finite_cartan_type([[2, -3], [-1, 2]]).components == ["G2"]
    b2 = finite_cartan_type([[2, -2], [-1, 2]])
    assert b2.components == ["B2"]
    b3 = finite_cartan_type([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
    c3 = finite_cartan_type([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    assert b3.components == ["B3"]
    assert c3.components == ["C3"]
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    assert finite_cartan_type(d4).components == ["D4"]
    f4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    assert finite_cartan_type(f4).components == ["F4"]


def test_finite_type_permutation_invariance():
    base = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    perms = [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)]
    for p in perms:
        permuted = [[base[p[i]][p[j]] for j in range(3)] for i in range(3)]
        assert finite_cartan_type(permuted).components == ["B3"]


def _shuffled(A, rng):
    """A under a seeded simultaneous permutation of rows and columns."""
    perm = list(range(len(A)))
    rng.shuffle(perm)
    return [[A[r][c] for c in perm] for r in perm]


def _direct_sum(A, B):
    n = len(A)
    return ([row + [0] * len(B) for row in A]
            + [[0] * n + row for row in B])


def test_finite_types_of_every_rank_are_named():
    # A_n, B_n, C_n and D_n exist at every rank; only E, F and G stop at 8.
    for name in ("A9", "B10", "C9", "D12"):
        A = dict(cartan_catalog(int(name[1:])))[name]
        assert finite_cartan_type(A).components == [name]


def test_classifier_matches_oracle_on_every_small_gcm():
    # Every GCM of rank <= 3 with off-diagonal entries in 0..-4.
    bonds = [(0, 0)] + list(product(range(-4, 0), repeat=2))
    count = finite = 0
    for n in (1, 2, 3):
        pairs = list(combinations(range(n), 2))
        for choice in product(bonds, repeat=len(pairs)):
            A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), (a, b) in zip(pairs, choice):
                A[i][j], A[j][i] = a, b
            result = finite_cartan_type(A)
            assert result == oracle_cartan_type(A), A
            count += 1
            finite += result.is_finite_type
    assert (count, finite) == (4931, 38)


def test_classifier_matches_oracle_on_permuted_catalog():
    rng = random.Random(13)
    # Every type of rank <= 8, and A, B, C and D at ranks 9-12.
    cases = [case for n in range(1, 13) for case in cartan_catalog(n)]
    for name, A in cases:
        for _ in range(3):
            P = _shuffled(A, rng)
            assert finite_cartan_type(P) == oracle_cartan_type(P) \
                == CartanTypeResult(True, [name]), (name, P)


def test_classifier_matches_oracle_on_direct_sums():
    rng = random.Random(14)
    blocks = [A for n in range(1, 5) for _, A in cartan_catalog(n)]
    # Affine A1, A2, C2 and G2, and a rank-2 matrix of bond product 5.
    blocks += [[[2, -2], [-2, 2]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
               [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
               [[2, -1, 0], [-1, 2, -1], [0, -3, 2]], [[2, -5], [-1, 2]]]
    for A, B in combinations(blocks, 2):
        S = _shuffled(_direct_sum(A, B), rng)
        expect = oracle_cartan_type(S)
        assert finite_cartan_type(S) == expect, S
        parts = [finite_cartan_type(A), finite_cartan_type(B)]
        if all(p.is_finite_type for p in parts):
            assert expect.components == sorted(parts[0].components
                                               + parts[1].components)
        else:
            assert not expect.is_finite_type


def test_classifier_matches_oracle_on_random_gcms():
    rng = random.Random(15)
    bonds = [(0, 0)] * 9 + [(-1, -1)] * 6 + [(-1, -2), (-2, -1), (-1, -3),
                                              (-3, -1), (-2, -2), (-1, -4)]
    finite = 0
    for k in range(2000):
        n = 4 + k % 2
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in combinations(range(n), 2):
            A[i][j], A[j][i] = rng.choice(bonds)
        result = finite_cartan_type(A)
        assert result == oracle_cartan_type(A), A
        finite += result.is_finite_type
    assert 100 < finite < 1900


def test_finite_type_rejects_non_gcm():
    with pytest.raises(ValidationError):
        finite_cartan_type([[2, -1], [0, 2]])


def test_certificates(w_triple, w_pair):
    cert = infinite_dim_certificate(w_triple)
    assert cert.verdict == "infinite-dimensional"
    assert cert.standard and cert.vertex_count == 24
    assert cert.cartan == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    pair_cert = infinite_dim_certificate(w_pair)
    assert pair_cert.verdict == "no conclusion from this criterion"
    assert pair_cert.cartan_type.components == ["A2"]


def test_pullback_certificates():
    for orders, bound, expect_vertices in [((2, 2, 2), 64, 24),
                                           ((2, 2, 4), 128, 96)]:
        group = make_abelian_group(orders)
        phi = sign_cocycle(group)
        v_tuple = ModuleTuple([preset_module(f"V{k}", group, phi)
                               for k in (1, 2, 3)])
        cert = infinite_dim_certificate(v_tuple, vertex_bound=bound)
        assert cert.verdict == "infinite-dimensional"
        assert cert.vertex_count == expect_vertices
        orbit = degree_orbit(group, [m.degrees[0] for m in v_tuple])
        assert cert.vertex_count == len(orbit)


def test_dot_output_is_deterministic(pair_graph):
    dot1 = to_dot(pair_graph)
    dot2 = to_dot(pair_graph)
    assert dot1 == dot2
    assert dot1.startswith("graph semicartan {")
    assert dot1.count(" -- ") == 6  # 6 vertices, involutive edges 1 and 2


@pytest.fixture(scope="module")
def closure_cases(w_graph, pair_graph, v_triple, z9_pair):
    """(graph, bound) pairs: W at 20 and 50, W12 and V at 50, z9pair's P,
    and the hand-built graphs at bounds that truncate and that do not."""
    v_graph = build_cartan_graph(v_triple, vertex_bound=128)
    z9_graph = build_cartan_graph(z9_pair[1])
    cases = [(w_graph, 20), (w_graph, 50), (pair_graph, 50), (v_graph, 50),
             (z9_graph, 50)]
    for graph in (B2, NONSTANDARD, A3):
        cases += [(graph, bound) for bound in (1, 2, 3, 50)]
    return cases


def test_root_closure_matches_reference(closure_cases):
    truncated = set()
    for graph, bound in closure_cases:
        got, want = real_roots(graph, bound), reference_real_roots(graph, bound)
        assert got == want and list(got[0]) == list(want[0]), bound
        truncated.add(got[1])
    assert truncated == {True, False}


def _quotient_closure(graph, bound):
    """reference_real_roots on the oracle quotient of graph, read back at
    graph's vids: each vertex gets its class's list."""
    classes = root_classes(graph)
    roots, truncated = reference_real_roots(quotient_graph(graph, classes),
                                            bound)
    if truncated:
        return roots, truncated
    class_of = {vid: c for c, vids in enumerate(classes) for vid in vids}
    return {vid: roots[class_of[vid]]
            for vid in range(graph.vertex_count())}, False


@pytest.mark.parametrize("cap", [1, 100, 1000])
def test_root_closure_cap_matches_reference(closure_cases, monkeypatch, cap):
    # The cap bounds the states held, which are (class, root) states: the
    # engine hits it, or truncates first, exactly where the per-vertex
    # reference does on the quotient graph.
    monkeypatch.setattr(weylgraph, "MAX_ROOT_STATES", cap)
    for graph, bound in closure_cases:
        outcomes = []
        for closure in (real_roots, _quotient_closure):
            try:
                outcomes.append(closure(graph, bound))
            except ResourceBoundError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        assert got == want, (cap, bound)
        if isinstance(got, tuple):
            assert list(got[0]) == list(want[0]), (cap, bound)


def _vid_sets(classes):
    return sorted(sorted(vid for vid, c in enumerate(classes) if c == k)
                  for k in set(classes))


def test_root_classes_match_oracle(closure_cases):
    sizes = set()
    for graph, _ in closure_cases:
        got = _root_classes(graph)
        assert _vid_sets(got) == sorted(root_classes(graph))
        # Numbered by first vertex in vid order.
        assert [c for vid, c in enumerate(got) if c not in got[:vid]] \
            == list(range(len(set(got))))
        sizes.add((graph.vertex_count(), len(set(got))))
    # W, W12 and V are standard; NONSTANDARD's v0 and v1 share a Cartan
    # matrix but r_1 tells them apart.
    assert {(24, 1), (96, 1), (3, 3)} <= sizes


# Cartan matrices for random graphs: finite, affine and hyperbolic, with
# repeats so that classes both merge and split.
_POOL = {
    2: [[[2, -1], [-1, 2]], [[2, -2], [-1, 2]], [[2, -1], [-3, 2]],
        [[2, -2], [-2, 2]]],
    3: [[[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        [[2, 0, 0], [0, 2, -1], [0, -1, 2]]],
}


def _random_involution(rng, n):
    perm, free = list(range(n)), list(range(n))
    rng.shuffle(free)
    while len(free) > 1:
        if rng.random() < 0.6:
            x, y = free.pop(), free.pop()
            perm[x], perm[y] = y, x
        else:
            free.pop()
    return perm


def _random_graph(rng, cycle):
    theta, n = rng.choice((2, 3)), rng.randint(3 if cycle else 1, 8)
    pool = rng.sample(_POOL[theta], rng.randint(1, 3))
    perms = [_random_involution(rng, n) for _ in range(theta)]
    if cycle:
        # r_1 moves 0 -> 1 -> 2 -> 0: CG1 fails.
        perms[0] = [1, 2, 0] + [3 + x for x in _random_involution(rng, n - 3)]
    return _hand_built(
        [rng.choice(pool) for _ in range(n)],
        {(i, vid): perm[vid] for i, perm in enumerate(perms)
         for vid in range(n)})


def test_root_closure_on_random_graphs():
    rng = random.Random(27)
    merged = split = 0
    for case in range(200):
        cycle = case % 20 == 0
        graph = _random_graph(rng, cycle)
        classes = _root_classes(graph)
        if cycle:
            assert classes == list(range(graph.vertex_count()))
        else:
            assert _vid_sets(classes) == sorted(root_classes(graph))
            cartans = {tuple(map(tuple, v.cartan)) for v in graph.vertices}
            merged += len(set(classes)) < graph.vertex_count()
            split += len(set(classes)) > len(cartans)
        for bound in range(1, 7):
            got = real_roots(graph, bound)
            want = reference_real_roots(graph, bound)
            assert got == want and list(got[0]) == list(want[0]), (case, bound)
    assert merged and split
