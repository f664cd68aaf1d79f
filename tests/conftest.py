import json
import os
from itertools import permutations

import pytest

from ydweyl.cli import Session
from ydweyl.cyclo import CycScalar, root_of_unity
from ydweyl.groupdata import (Cocycle3, group_from_cayley, make_abelian_group,
                             sign_cocycle)
from ydweyl.ydcat import (ModuleTuple, YDModule, module_from_generator_actions,
                          preset_module)

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


@pytest.fixture(scope="session")
def z2cubed():
    group = make_abelian_group([2, 2, 2])
    return group, sign_cocycle(group)


@pytest.fixture(scope="session")
def w_presets(z2cubed):
    group, phi = z2cubed
    return {k: preset_module(f"W{k}", group, phi) for k in range(1, 7)}


@pytest.fixture(scope="session")
def w_triple(w_presets):
    return ModuleTuple([w_presets[1], w_presets[2], w_presets[3]])


@pytest.fixture(scope="session")
def w_pair(w_presets):
    return ModuleTuple([w_presets[1], w_presets[2]])


@pytest.fixture(scope="session")
def z9_pair():
    """[L, L4] over twisted Z3: lines of degree g acting by zeta(9), zeta(9)^4."""
    with open(os.path.join(SESSIONS, "z3twisted.json")) as fh:
        session = Session(json.load(fh))
    line4 = module_from_generator_actions(
        session.group, session.cocycle, 1, {1: [[root_of_unity(9, 4)]]},
        name="L4")
    return session.group, ModuleTuple([session.modules["L"], line4])


def tower_session(max_degree: int) -> dict:
    """Z2 x Z2, trivial cocycle, X of degree g1 fixed by every element and Y
    of degree g2 negated by g1: ad(X)^n(Y) never vanishes."""
    ones = {str(g): [["1"]] for g in range(4)}
    return {"group": {"abelian": [2, 2]}, "cocycle": {"trivial": True},
            "modules": {"X": {"degrees": [2], "action": ones},
                        "Y": {"degrees": [1],
                              "action": {"0": [["1"]], "1": [["1"]],
                                         "2": [["-1"]], "3": [["-1"]]}}},
            "tuples": {"P": ["X", "Y"]},
            "cutoffs": {"max_degree": max_degree, "ad_cutoff": 100000}}


@pytest.fixture(scope="session")
def tower_pair():
    """[X, Y] of tower_session: B is infinite and its Delta entries grow."""
    return Session(tower_session(8)).tuples["P"]


@pytest.fixture(scope="session")
def v_triple():
    """The tuple V of the z2z2z4 session (Z2 x Z2 x Z4, sign cocycle)."""
    with open(os.path.join(SESSIONS, "z2z2z4.json")) as fh:
        return Session(json.load(fh)).tuples["V"]


def _sgn(p):
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def s3_transposition_module():
    """S3 with the trivial cocycle and FK3: the transpositions, each of its
    own degree, with g |> t = sgn(g) g t g^-1 written on every element."""
    perms = sorted(permutations(range(3)))
    perms.remove((0, 1, 2))
    perms.insert(0, (0, 1, 2))

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    index = {p: i for i, p in enumerate(perms)}
    cayley = [[index[compose(p, q)] for q in perms] for p in perms]
    group = group_from_cayley(cayley)
    phi = Cocycle3.trivial(group)
    transpositions = [p for p in perms
                      if sum(p[i] != i for i in range(3)) == 2]
    degrees = [index[t] for t in transpositions]
    action = {}
    for gi, g in enumerate(perms):
        ginv = tuple(g.index(x) for x in range(3))
        mat = [[CycScalar.zero()] * 3 for _ in range(3)]
        for col, t in enumerate(transpositions):
            conj = compose(compose(g, t), ginv)
            mat[transpositions.index(conj)][col] = \
                CycScalar.from_rational(_sgn(g))
        action[gi] = mat
    module = YDModule(group, phi, degrees, action, name="FK3")
    return group, phi, module
