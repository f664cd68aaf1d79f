import json
import os

import pytest

from ydweyl.cli import Session
from ydweyl.cyclo import root_of_unity
from ydweyl.groupdata import make_abelian_group, sign_cocycle
from ydweyl.ydcat import (ModuleTuple, module_from_generator_actions,
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
