"""Objects of the twisted Yetter-Drinfeld category over (kG, Phi).

A module is a G-graded space with a Phi-projective G-action: every basis
vector is homogeneous (degree deg(v) in G) and the action satisfies

    e |> (f |> v) = omega_g(e, f) * (ef) |> v      for v of degree g,
    1 |> v = v,
    e |> v  has degree  e g e^-1,

with omega_g(e, f) = Phi(e,f,g) Phi(efgf^-1e^-1,e,f) / Phi(e,fgf^-1,f)
(Cocycle3.omega).

Action matrices use the column convention: (g |> v_j) = sum_i A[g][i][j] v_i.
Modules are immutable in spirit: nothing mutates them after construction, so
they can be shared freely.  Every module the engine computes (presets, duals,
ad levels) comes from one walk that extends generator matrices by the twisted
composition law and checks that law at every other pair it meets.
"""

from __future__ import annotations

from .cyclo import det, identity_matrix, inv, mat_mul, nullspace, scalar_key
from .errors import ResourceBoundError, ValidationError
from .groupdata import Cocycle3, Group, Report

# Largest module dimension accepted.  yd_axiom_check does one cubic matrix
# product per (e, f) in S x G, S a generating set of G, once Phi's pentagon
# holds (G x G otherwise): `validate` of one 32-dim module with identity
# actions (trivial cocycle) takes 0.25-0.37 s over Z2^3 and 0.7-1.1 s over
# Z2^5 on a 2-core VM, and as long with one entry corrupted.
MAX_MODULE_DIM = 32


class YDModule:
    def __init__(self, group: Group, cocycle: Cocycle3, degrees, action,
                 name: str | None = None):
        if cocycle.group is not group:
            raise ValidationError("cocycle is not defined on the given group")
        self.group = group
        self.cocycle = cocycle
        self.degrees = tuple(int(d) for d in degrees)
        self.dim = len(self.degrees)
        if self.dim > MAX_MODULE_DIM:
            raise ResourceBoundError(f"module dimension {self.dim} exceeds the "
                                     f"largest supported dimension "
                                     f"{MAX_MODULE_DIM}")
        for d in self.degrees:
            if not 0 <= d < group.order:
                raise ValidationError(f"degree {d} is not an element of the "
                                      f"group of order {group.order}")
        if self.dim == 0:
            raise ValidationError("modules must be nonzero")
        self.action = {int(g): tuple(tuple(m[i][j] for j in range(self.dim))
                                     for i in range(self.dim))
                       for g, m in action.items()}
        if sorted(self.action) != list(group.elements()):
            raise ValidationError("action must be given for every group element")
        self.name = name
        # Memo for module_canonical_key(): modules are immutable.
        self._key = None

    def act_matrix(self, g: int):
        return self.action[g]

    def act_column(self, g: int, j: int):
        """Image of basis vector j under g as a list of (i, scalar)."""
        col = []
        m = self.action[g]
        for i in range(self.dim):
            if m[i][j]:
                col.append((i, m[i][j]))
        return col

    def __repr__(self):
        return f"YDModule({self.name or 'unnamed'}, dim={self.dim})"


def yd_axiom_check(V: YDModule) -> Report:
    """Whether the three YD axioms hold over G x G x basis.

    The unit and degree laws are checked on every g, the composition law
    for e in a generating set S of G once Phi's pentagon holds
    (Cocycle3.pentagon) and for every e otherwise.  That suffices: by
    induction on e = s e' (s in S), the law at (e, f) follows from the laws
    at (s, e'f), (e', f) and (s, e') on f |> v, which has degree f |> g by
    the degree law, and from omega_g(s, e'f) omega_g(e', f) =
    omega_g(se', f) omega_{f|>g}(s, e'), which the pentagon implies.
    """
    G = V.group
    firsts = _generators(G) if V.cocycle.pentagon().ok else G.elements()
    return _yd_walk(G, V.cocycle, V.degrees,
                    {e: V.action[e] for e in firsts}, V.action)


def _generators(G: Group) -> list:
    """A greedy generating set: each element not yet generated, in order."""
    gens, reached = [], {G.identity}
    for e in G.elements():
        if e in reached:
            continue
        gens.append(e)
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = G.mul(x, s)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return gens


def _yd_walk(G: Group, phi: Cocycle3, degrees, firsts: dict,
             known: dict) -> Report:
    """The composition law for e in firsts (dict e -> A_e), then the unit
    and degree laws on known (dict g -> A_g, extended in place).

    f runs over G breadth-first from 1 in steps by firsts.  For each e in
    order P = A_e A_f, and an ef not yet in known gets A_ef[:, k] =
    omega_{deg k}(e, f)^-1 P[:, k]; any other ef is checked against P, and
    the first failure kept.  Never stopping early, known ends with every
    element that firsts reach."""
    dim, failure, order = len(degrees), None, [G.identity]
    for f in order:
        for e in sorted(firsts):
            ef = G.mul(e, f)
            if ef not in order:
                order.append(ef)
            if ef in known and failure:
                continue
            prod = mat_mul(firsts[e], known[f])
            if ef not in known:
                winv = [inv(phi.omega(e, f, d)) for d in degrees]
                known[ef] = [[x * w for x, w in zip(row, winv)]
                             for row in prod]
                continue
            for j in range(dim):
                w = phi.omega(e, f, degrees[j])
                if any(not prod[i][j] == w * known[ef][i][j]
                       for i in range(dim)):
                    failure = (f"twisted composition fails at (e={e}, f={f}, "
                               f"basis {j})")
                    break
    bad = []
    if any(not known[G.identity][i][j] == int(i == j)
           for i in range(dim) for j in range(dim)):
        bad.append("unit law fails: action of 1 is not the identity matrix")
    bad += [f"degree compatibility fails: {g}|>v{j} hits degree {degrees[i]} "
            f"!= {G.conj(g, degrees[j])}"
            for g in sorted(known) for j in range(dim) for i in range(dim)
            if known[g][i][j] and degrees[i] != G.conj(g, degrees[j])]
    bad += [failure] if failure else []
    return Report(not bad, bad)


def module_from_generator_actions(group: Group, cocycle: Cocycle3, degrees,
                                  generator_actions: dict,
                                  name=None) -> YDModule:
    """Extend generator action matrices over the whole group, checked.

    degrees gives each basis vector's degree, or one int for a module
    whose basis vectors share it (the simple presets).  One _yd_walk from
    A_1 = I defines each product's action and checks the law at every other
    pair, a matrix given for 1 included.  Once Phi's pentagon holds that
    decides the axioms (see yd_axiom_check); otherwise the result is
    checked over all of G.  Violations raise ValidationError."""
    if isinstance(degrees, int):
        degrees = [degrees] * len(next(iter(generator_actions.values())))
    known: dict = {group.identity: identity_matrix(len(degrees))}
    gens = {int(g): m for g, m in generator_actions.items()}
    report = _yd_walk(group, cocycle, degrees, gens, known)
    if len(known) != group.order:
        raise ValidationError("generator set does not generate the group")
    V = YDModule(group, cocycle, degrees, known, name=name)
    if report and not cocycle.pentagon():
        report = yd_axiom_check(V)
    if not report:
        raise ValidationError(
            f"generator actions are inconsistent: {report.summary()}")
    return V


def dual(V: YDModule) -> YDModule:
    """Left dual with deg(f_j) = deg(v_j)^-1 and the contragredient twist.

    The action is pinned by requiring the evaluation pairing <f_i, v_j> =
    delta_ij to be a morphism V* (x) V -> k.  It is written for generators
    of G; module_from_generator_actions extends and validates it like every
    other computed module, so an invalid twist raises ValidationError.
    """
    G, phi = V.group, V.cocycle
    actions = {}
    for h in _generators(G):
        mat = [[0] * V.dim for _ in range(V.dim)]
        for k, gk in enumerate(V.degrees):
            w_deg = G.conj(G.inv(h), gk)
            s = inv(phi.tensor_action(h, G.inv(w_deg), w_deg)
                    * phi.omega(h, G.inv(h), gk))
            for j, x in V.act_column(G.inv(h), k):
                mat[k][j] = s * x
        actions[h] = mat
    return module_from_generator_actions(G, phi, [G.inv(d) for d in V.degrees],
                                         actions, name=f"{V.name or '?'}*")


def iso_test(V: YDModule, W: YDModule):
    """Invertible degree-preserving intertwiner V -> W, or None.

    Solves the linear system T A^V_g = A^W_g T exactly with the degree-block
    sparsity pattern, then searches the solution space for an invertible
    combination on a (dim+1)^k evaluation grid, which decides existence
    since det is a polynomial of per-variable degree <= dim.
    """
    if V.group is not W.group or V.cocycle is not W.cocycle:
        raise ValidationError("iso_test operands live over different (G, Phi)")
    if V.dim != W.dim:
        return None
    if sorted(V.degrees) != sorted(W.degrees):
        return None
    n = V.dim
    unknowns = [(i, j) for i in range(n) for j in range(n)
                if W.degrees[i] == V.degrees[j]]
    index = {u: k for k, u in enumerate(unknowns)}
    equations = []
    for g in V.group.elements():
        av, aw = V.act_matrix(g), W.act_matrix(g)
        for i in range(n):
            for j in range(n):
                # (T A^V_g - A^W_g T)[i][j] = 0
                row = [0] * len(unknowns)
                nonzero = False
                for k in range(n):
                    if (i, k) in index and av[k][j]:
                        row[index[(i, k)]] = row[index[(i, k)]] + av[k][j]
                        nonzero = True
                    if (k, j) in index and aw[i][k]:
                        row[index[(k, j)]] = row[index[(k, j)]] - aw[i][k]
                        nonzero = True
                if nonzero:
                    equations.append(row)
    basis = nullspace(equations, len(unknowns))
    if not basis:
        return None

    def to_matrix(coeffvec):
        mat = [[0] * n for _ in range(n)]
        for (i, j), k in index.items():
            mat[i][j] = coeffvec[k]
        return mat

    mats = [to_matrix(b) for b in basis]
    grid = range(n + 1)
    from itertools import product as iproduct
    for combo in iproduct(grid, repeat=len(mats)):
        if all(c == 0 for c in combo):
            continue
        cand = [[sum((m[i][j] * c for m, c in zip(mats, combo) if c), 0)
                 for j in range(n)] for i in range(n)]
        if det(cand):
            return cand
    return None


class ModuleTuple:
    def __init__(self, entries: list):
        self.entries = entries
        if not self.entries:
            raise ValidationError("tuples must be nonempty")
        g = self.entries[0].group
        phi = self.entries[0].cocycle
        for m in self.entries:
            if m.group is not g or m.cocycle is not phi:
                raise ValidationError("tuple entries share group and cocycle")

    @property
    def theta(self) -> int:
        return len(self.entries)

    @property
    def group(self) -> Group:
        return self.entries[0].group

    @property
    def cocycle(self) -> Cocycle3:
        return self.entries[0].cocycle

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def degree_names(self):
        g = self.group
        return tuple(g.element_name(m.degrees[0]) if len(set(m.degrees)) == 1
                     else "mixed" for m in self.entries)


def module_canonical_key(V: YDModule) -> tuple:
    """Complete isomorphism key: the character of V over D^Phi(G).

    Twisted YD modules are modules over the twisted Drinfeld double
    D^Phi(G) (Dijkgraaf-Pasquier-Roche 1990), spanned by the elements
    delta_g x; the trace of delta_g x is tr(x on V_g) when x centralizes g
    and 0 otherwise.  D^Phi(G) is semisimple in characteristic 0, so these
    traces determine V: over one (G, Phi), two modules have equal keys
    exactly when iso_test finds an isomorphism.  Each trace is encoded by
    cyclo.scalar_key, so its kind and stored conductor do not matter.
    """
    if V._key is not None:
        return V._key
    G = V.group
    characters = []
    for g in sorted(set(V.degrees)):
        block = [k for k, d in enumerate(V.degrees) if d == g]
        traces = []
        for x in G.elements():
            if G.conj(x, g) == g:
                m = V.act_matrix(x)
                traces.append(scalar_key(sum(m[k][k] for k in block)))
        characters.append((g, tuple(traces)))
    V._key = (V.dim, tuple(characters))
    return V._key


# ---------------------------------------------------------------------------
# Named presets for the sign-cocycle worked family.
# ---------------------------------------------------------------------------

def _diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


_SWAP = [[0, 1], [1, 0]]


def preset_module(name: str, group: Group, cocycle: Cocycle3,
                  module_name: str | None = None) -> YDModule:
    """Simple 2-dimensional presets W1..W6 (over Z2^3) and V1..V3.

    The module is called module_name (a session's name for it), else name.

    V1..V3 are defined over any 3-factor abelian group with the sign
    cocycle; W1..W6 require exponent vectors of length 3 with the W4..W6
    degrees available (the Z2^3 reduction).  Actions are specified on a
    generating set and extended by the twisted composition law.
    """
    if group.abelian_orders is None or len(group.abelian_orders) != 3:
        raise ValidationError("presets need a 3-factor abelian group")
    g1 = group.element_index((1, 0, 0))
    g2 = group.element_index((0, 1, 0))
    g3 = group.element_index((0, 0, 1))
    minus = _diag(-1, -1)
    plusminus = _diag(1, -1)
    specs = {
        "V1": ((1, 0, 0), {g1: minus, g2: plusminus, g3: _SWAP}),
        "V2": ((0, 1, 0), {g2: minus, g3: plusminus, g1: _SWAP}),
        "V3": ((0, 0, 1), {g3: minus, g2: plusminus, g1: _SWAP}),
    }
    specs["W1"] = specs["V1"]
    specs["W2"] = specs["V2"]
    specs["W3"] = specs["V3"]
    if name in ("W4", "W5", "W6"):
        g12 = group.element_index((1, 1, 0))
        g13 = group.element_index((1, 0, 1))
        g23 = group.element_index((0, 1, 1))
        specs["W4"] = ((1, 1, 0), {g12: minus, g1: plusminus, g3: _SWAP})
        specs["W5"] = ((1, 0, 1), {g13: minus, g1: plusminus, g2: _SWAP})
        specs["W6"] = ((0, 1, 1), {g23: minus, g2: plusminus, g1: _SWAP})
    if name not in specs:
        raise ValidationError(f"unknown preset {name!r}")
    exps, gens = specs[name]
    degree = group.element_index(exps)
    return module_from_generator_actions(
        group, cocycle, degree, gens, name=module_name or name)


PRESET_NAMES = ("W1", "W2", "W3", "W4", "W5", "W6", "V1", "V2", "V3")
