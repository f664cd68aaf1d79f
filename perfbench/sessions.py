"""Session files for the benchmark workloads.

Seed 0 is the shipped input verbatim (or, for the generated conductor-9
session, its plain generated form).  Any other seed relabels the basis of
every module by a seeded signed permutation and writes the result as
explicit `degrees`/`action` stanzas.  A relabelled module is isomorphic to
the original, so every workload's stdout is the same on every seed.
"""

from __future__ import annotations

import json
import os
import random

from ydweyl.cli import Session
from ydweyl.cyclo import root_of_unity
from ydweyl.ydcat import module_from_generator_actions

# The action of L4 at g^2 that the twisted composition law forces; the
# generator checks it so a change in that law cannot pass unnoticed.
L4_AT_G2 = "-zeta(9)^2 - zeta(9)^5"


def module_stanza(mod) -> dict:
    return {"degrees": list(mod.degrees),
            "action": {str(g): [[str(x) for x in row]
                                for row in mod.act_matrix(g)]
                       for g in mod.group.elements()}}


def z9pair_session(repo: str) -> dict:
    """Twisted Z3 with the tuple P = [L, L4] of two degree-g lines.

    L is the shipped line acting by zeta(9) at g; L4 acts by zeta(9)^4 and
    is extended over the group by `module_from_generator_actions`.
    """
    with open(os.path.join(repo, "sessions", "z3twisted.json")) as fh:
        data = json.load(fh)
    session = Session(data)
    l4 = module_from_generator_actions(
        session.group, session.cocycle, 1, {1: [[root_of_unity(9, 4)]]},
        name="L4")
    stanza = module_stanza(l4)
    if stanza["action"]["2"] != [[L4_AT_G2]]:
        raise ValueError(f"L4 acts at g^2 by {stanza['action']['2']}, "
                         f"expected {L4_AT_G2}")
    data["modules"]["L4"] = stanza
    data["tuples"] = {"P": ["L", "L4"]}
    return data


def relabel(data: dict, seed: int) -> dict:
    """Relabel each module's basis by a seeded signed permutation.

    With new basis vectors e'_i = s_i e_{p(i)}, the degrees become
    d'_i = d_{p(i)} and each action matrix A becomes
    A'[i][j] = s_i s_j A[p(i)][p(j)].
    """
    rng = random.Random(seed)
    session = Session(data)
    out = dict(data)
    out["modules"] = {}
    for name in sorted(session.modules):
        mod = session.modules[name]
        perm = list(range(mod.dim))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in perm]
        action = {}
        for g in mod.group.elements():
            m = mod.act_matrix(g)
            action[str(g)] = [[str(m[p][q] if si * sj == 1 else -m[p][q])
                               for q, sj in zip(perm, signs)]
                              for p, si in zip(perm, signs)]
        out["modules"][name] = {"degrees": [mod.degrees[p] for p in perm],
                                "action": action}
    return out


def write_session(repo: str, source: str, seed: int, workdir: str) -> str:
    """Path of the session file for `source` at `seed`, written if needed.

    `source` is a shipped session path relative to the repo, or the name
    of a generated session ("z9pair").
    """
    if source == "z9pair":
        data = z9pair_session(repo)
    elif seed == 0:
        return os.path.join(repo, source)
    else:
        with open(os.path.join(repo, source)) as fh:
            data = json.load(fh)
    if seed != 0:
        data = relabel(data, seed)
    stem = os.path.splitext(os.path.basename(source))[0]
    path = os.path.join(workdir, f"{stem}_seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    return path
