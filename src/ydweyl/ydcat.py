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
they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycScalar, det, identity_matrix, mat_mul, nullspace
from .errors import ResourceBoundError, ValidationError
from .groupdata import Cocycle3, Group, Report

_ONE = CycScalar.one()
_ZERO = CycScalar.zero()

# Largest module dimension accepted.  yd_axiom_check walks G x G x basis
# with cubic matrix work: `validate` of one module with identity actions
# takes 0.8 s at dimension 32 over Z2^3 and 15-19 s over Z2^5 on a 2-core VM.
MAX_MODULE_DIM = 32


class YDModule:
    def __init__(self, group: Group, cocycle: Cocycle3, degrees, action,
                 name: str | None = None, basis_names=None):
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
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"{name or 'v'}{i + 1}" for i in range(self.dim))
        # Memo for module_canonical_key(): modules are immutable.
        self._key = None

    def act_matrix(self, g: int):
        return self.action[g]

    def act_column(self, g: int, j: int):
        """Image of basis vector j under g as a list of (i, scalar)."""
        col = []
        m = self.action[g]
        for i in range(self.dim):
            if not m[i][j].is_zero():
                col.append((i, m[i][j]))
        return col

    def __repr__(self):
        return f"YDModule({self.name or 'unnamed'}, dim={self.dim})"


def yd_axiom_check(V: YDModule) -> Report:
    """Exhaustive check of the three YD axioms over G x G x basis."""
    G, phi = V.group, V.cocycle
    bad = []
    ident = V.act_matrix(G.identity)
    for i in range(V.dim):
        for j in range(V.dim):
            expect = _ONE if i == j else _ZERO
            if not ident[i][j] == expect:
                bad.append("unit law fails: action of 1 is not the identity matrix")
                break
    for g in G.elements():
        m = V.act_matrix(g)
        for j in range(V.dim):
            target = G.conj(g, V.degrees[j])
            for i in range(V.dim):
                if not m[i][j].is_zero() and V.degrees[i] != target:
                    bad.append(
                        f"degree compatibility fails: {g}|>v{j} hits degree "
                        f"{V.degrees[i]} != {target}")
    for e in G.elements():
        me = V.act_matrix(e)
        for f in G.elements():
            lhs = mat_mul(me, V.act_matrix(f))
            mef = V.act_matrix(G.mul(e, f))
            for j in range(V.dim):
                w = phi.omega(e, f, V.degrees[j])
                for i in range(V.dim):
                    if not lhs[i][j] == w * mef[i][j]:
                        bad.append(
                            f"twisted composition fails at (e={e}, f={f}, "
                            f"basis {j})")
                        return Report(False, bad)
    return Report(not bad, bad)


def module_from_generator_actions(group: Group, cocycle: Cocycle3, degree: int,
                                  generator_actions: dict, name=None,
                                  basis_names=None) -> YDModule:
    """Extend generator action matrices over the whole group.

    All basis vectors share the single degree `degree` (the simple-module
    case).  Actions of products are forced by the twisted composition law;
    the result is validated with yd_axiom_check before being returned.
    """
    dim = len(next(iter(generator_actions.values())))
    known: dict[int, list] = {group.identity: identity_matrix(dim)}
    gens = {int(g): [list(row) for row in m] for g, m in generator_actions.items()}
    frontier = [group.identity]
    while frontier:
        new = []
        for e in frontier:
            for s in sorted(gens):
                se = group.mul(s, e)
                if se in known:
                    continue
                winv = cocycle.omega(s, e, degree).inv()
                mat = mat_mul(gens[s], known[e])
                known[se] = [[x * winv for x in row] for row in mat]
                new.append(se)
        frontier = new
    if len(known) != group.order:
        raise ValidationError("generator set does not generate the group")
    V = YDModule(group, cocycle, [degree] * dim, known, name=name,
                 basis_names=basis_names)
    report = yd_axiom_check(V)
    if not report:
        raise ValidationError(
            f"generator actions are inconsistent: {report.summary()}")
    return V


def dual(V: YDModule) -> YDModule:
    """Left dual with deg(f_j) = deg(v_j)^-1 and the contragredient twist.

    The action is pinned by requiring the evaluation pairing <f_i, v_j> =
    delta_ij to be a morphism V* (x) V -> k.  The candidate is validated;
    an invalid twist is reported, never returned.
    """
    G, phi = V.group, V.cocycle
    degrees = [G.inv(d) for d in V.degrees]
    action = {}
    for h in G.elements():
        ah_inv = V.act_matrix(G.inv(h))
        mat = [[_ZERO] * V.dim for _ in range(V.dim)]
        for k in range(V.dim):
            gk = V.degrees[k]
            w_deg = G.conj(G.inv(h), gk)
            s = (phi.tensor_action(h, G.inv(w_deg), w_deg)
                 * phi.omega(h, G.inv(h), gk)).inv()
            for j in range(V.dim):
                if not ah_inv[j][k].is_zero():
                    mat[k][j] = s * ah_inv[j][k]
        action[h] = mat
    W = YDModule(G, phi, degrees, action, name=f"{V.name or '?'}*",
                 basis_names=[f"{b}*" for b in V.basis_names])
    report = yd_axiom_check(W)
    if not report:
        raise ValidationError(f"dual twist failed validation: {report.summary()}")
    return W


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
                row = [_ZERO] * len(unknowns)
                nonzero = False
                for k in range(n):
                    if (i, k) in index and not av[k][j].is_zero():
                        row[index[(i, k)]] = row[index[(i, k)]] + av[k][j]
                        nonzero = True
                    if (k, j) in index and not aw[i][k].is_zero():
                        row[index[(k, j)]] = row[index[(k, j)]] - aw[i][k]
                        nonzero = True
                if nonzero:
                    equations.append(row)
    basis = nullspace(equations, len(unknowns))
    if not basis:
        return None

    def to_matrix(coeffvec):
        mat = [[_ZERO] * n for _ in range(n)]
        for (i, j), k in index.items():
            mat[i][j] = coeffvec[k]
        return mat

    mats = [to_matrix(b) for b in basis]
    grid = range(n + 1)
    from itertools import product as iproduct
    for combo in iproduct(grid, repeat=len(mats)):
        if all(c == 0 for c in combo):
            continue
        cand = [[sum((m[i][j] * c for m, c in zip(mats, combo) if c), _ZERO)
                 for j in range(n)] for i in range(n)]
        if not det(cand).is_zero():
            return cand
    return None


@dataclass
class ModuleTuple:
    entries: list

    def __post_init__(self):
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
    CycScalar.canonical_key, so the stored conductor does not matter.
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
                traces.append(sum((m[k][k] for k in block), _ZERO).canonical_key())
        characters.append((g, tuple(traces)))
    V._key = (V.dim, tuple(characters))
    return V._key


# ---------------------------------------------------------------------------
# Named presets for the sign-cocycle worked family.
# ---------------------------------------------------------------------------

def _diag(*entries):
    n = len(entries)
    return [[CycScalar.from_rational(entries[i]) if i == j else _ZERO
             for j in range(n)] for i in range(n)]


_SWAP = [[_ZERO, _ONE], [_ONE, _ZERO]]


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
    letters = {"W1": "X", "W2": "Y", "W3": "Z", "W4": "R", "W5": "T",
               "W6": "S", "V1": "X", "V2": "Y", "V3": "Z"}
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
    letter = letters[name]
    return module_from_generator_actions(
        group, cocycle, degree, gens, name=module_name or name,
        basis_names=(f"{letter}1", f"{letter}2"))


PRESET_NAMES = ("W1", "W2", "W3", "W4", "W5", "W6", "V1", "V2", "V3")
