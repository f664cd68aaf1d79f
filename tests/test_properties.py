"""Diagonal-type statements checked on seeded random lines.

Over an abelian group with the trivial cocycle a line (a 1-dimensional
module) is a character placed at one degree, and its Nichols algebra and
ad towers are of diagonal type.  Two classical facts give references that
share no code with the Nichols and reflection layers; they are computed
here from exponents of roots of unity, in integer arithmetic:
  * rank 1: a line with self-braiding q has dim B(L)_n = 1 for n < ord(q)
    and 0 from ord(q) on, and B(L) is the polynomial ring when q = 1;
  * rank 2: a_12 = -min{m : (m+1)_{q11} (1 - q11^m q12 q21) = 0}
    (Heckenberger, Invent. Math. 164 (2006)).

Over Z_n with the twisted cocycle Phi_s, a pair of lines is compared with
its untwisted lift over Z_{n^2} (tests/oracles.py:lift_session): the two
are related by a braided monoidal equivalence, so everything computed
from the Nichols algebra agrees, while the twisted scalar paths run only
on one side.
"""

import random
from math import gcd

import pytest

from oracles import lift_session
from ydweyl.cli import Session
from ydweyl.cyclo import root_of_unity
from ydweyl.errors import UndecidedAtCutoff, YDWeylError
from ydweyl.groupdata import Cocycle3, make_abelian_group
from ydweyl.nichols import nichols_truncate
from ydweyl.reflect import PairCache, cartan_matrix
from ydweyl.weylgraph import (build_cartan_graph, infinite_dim_certificate,
                              is_finite)
from ydweyl.ydcat import ModuleTuple, module_from_generator_actions

MAX_DEGREE = 9


def _line(group, phi, degree, exponents, name):
    """The line of the given degree on which the k-th factor's generator
    acts by zeta(order_k)^exponents[k]."""
    actions = {}
    for k, (order, x) in enumerate(zip(group.abelian_orders, exponents)):
        unit = [0] * len(group.abelian_orders)
        unit[k] = 1
        actions[group.element_index(unit)] = [[root_of_unity(order, x)]]
    return module_from_generator_actions(group, phi, degree, actions,
                                         name=name)


def test_rank_one_lines_have_dimension_ord_q():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(2, 8)
        d, k = rng.randrange(n), rng.randrange(n)
        group = make_abelian_group([n])
        line = _line(group, Cocycle3.trivial(group),
                     group.element_index((d,)), [k], "L")
        # q = zeta(n)^(k d): its order is n / gcd(n, k d), and 1 means q = 1.
        order = n // gcd(n, k * d)
        expected = ((1,) * (MAX_DEGREE + 1) if order == 1
                    else (1,) * order + (0,) * (MAX_DEGREE + 1 - order))
        got = nichols_truncate(line, MAX_DEGREE).graded_dims()
        assert got == expected, (n, d, k)


def _heckenberger_m(u, v, n):
    """min{m : (m+1)_{q11} (1 - q11^m q12 q21) = 0} for q11 = zeta(n)^u and
    q12 q21 = zeta(n)^v, or None when no m has it."""
    for m in range(n):
        if (u % n and (m + 1) * u % n == 0) or (m * u + v) % n == 0:
            return m
    return None


def test_rank_two_cartan_entries_follow_heckenberger():
    rng = random.Random(2006)
    decided = undecided = 0
    for _ in range(120):
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        group = make_abelian_group([a, b])
        phi = Cocycle3.trivial(group)
        # chi[j] = exponents of x_j's character at g1 (mod a), g2 (mod b).
        chi = [[rng.randrange(a), rng.randrange(b)] for _ in range(2)]
        pair = ModuleTuple([
            _line(group, phi, group.element_index((1, 0)), chi[0], "X1"),
            _line(group, phi, group.element_index((0, 1)), chi[1], "X2")])
        # q_ij = chi_j(g_i), written over zeta(ab): n = a b.
        n = a * b
        q = [[chi[j][i] * n // (a, b)[i] for j in range(2)] for i in range(2)]
        cutoff, max_degree = rng.randint(2, 6), rng.randint(3, 6)
        last = min(cutoff, max_degree - 1)
        ms = [_heckenberger_m(q[i][i], q[i][1 - i] + q[1 - i][i], n)
              for i in range(2)]
        pairs = PairCache(cutoff, max_degree)
        if all(m is not None and m + 1 <= last for m in ms):
            assert cartan_matrix(pair, pairs) == [[2, -ms[0]], [-ms[1], 2]], (
                a, b, chi, cutoff, max_degree)
            decided += 1
        else:
            with pytest.raises(UndecidedAtCutoff):
                cartan_matrix(pair, pairs)
            undecided += 1
    assert decided and undecided


def _twisted_pair(n, s, lines, cutoffs):
    """Session data for lines X1, X2 over Z_n with Phi_s (lift_session's
    table); line (d, t) has degree d and its generator acts by
    zeta(n^2)^(s d + n t), which the twisted composition law admits: its
    n-th power is zeta(n)^(s d), the product of omega_d(1, k) over k."""
    table = [f"zeta({n})^{s * a * (b + c >= n) % n}"
             for a in range(n) for b in range(n) for c in range(n)]
    data = {"group": {"abelian": [n]}, "cocycle": {"table": table},
            "modules": {}, "cutoffs": cutoffs}
    session = Session(data)
    for k, (d, t) in enumerate(lines):
        line = module_from_generator_actions(
            session.group, session.cocycle, d,
            {1: [[root_of_unity(n * n, s * d + n * t)]]})
        data["modules"][f"X{k + 1}"] = {
            "degrees": [d],
            "action": {str(g): [[str(line.act_matrix(g)[0][0])]]
                       for g in range(n)}}
    data["tuples"] = {"P": ["X1", "X2"]}
    return data


def _outcome(fn):
    """fn's value, or the class of the engine error it raises."""
    try:
        return fn()
    except YDWeylError as exc:
        return type(exc)


def _pair_facts(data):
    """Graded dimensions, Cartan matrix, verdict line, finiteness with the
    real roots at the start vertex, and the vertex count of tuple P."""
    session = Session(data)
    P, cut = session.tuples["P"], session.cutoffs

    def pairs():
        return PairCache(cut["ad_cutoff"], cut["max_degree"])

    dims = nichols_truncate(P, cut["max_degree"]).graded_dims()
    cartan = _outcome(lambda: cartan_matrix(P, pairs()))
    verdict = _outcome(lambda: infinite_dim_certificate(
        P, pairs=pairs(), vertex_bound=cut["vertex_bound"]).lines()[0])
    graph = _outcome(lambda: build_cartan_graph(
        P, pairs=pairs(), vertex_bound=cut["vertex_bound"]))
    if isinstance(graph, type):
        return dims, cartan, verdict, graph, None
    result = is_finite(graph, cut["root_bound"])
    return (dims, cartan, verdict, (result.status, result.roots.get(0)),
            graph.vertex_count())


def test_twisted_lines_match_their_untwisted_lifts():
    rng = random.Random(6)
    cutoffs = {"max_degree": 5, "ad_cutoff": 4, "vertex_bound": 16,
               "root_bound": 20}
    decided = twisted_decided = 0
    for _ in range(24):
        n = rng.randint(2, 5)
        s = rng.randrange(n)
        lines = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
        data = _twisted_pair(n, s, lines, cutoffs)
        *twisted, count = _pair_facts(data)
        *lifted, lift_count = _pair_facts(lift_session(data))
        assert twisted == lifted, (n, s, lines)
        if count is not None:
            # The lift's graph covers the twisted one; the counts may differ.
            assert count <= lift_count, (n, s, lines)
            decided += 1
            twisted_decided += s != 0
    assert twisted_decided >= 3 and decided >= 8
