"""Semi-Cartan graphs, Weyl groupoids, real roots and finiteness criteria.

Vertices are isomorphism classes of module tuples, discovered by BFS over
reflection sequences.  A tuple's class is the tuple of its modules' complete
iso keys (twisted-double characters, see ydcat.module_canonical_key), so
closing the graph is dict lookups.  Reflections of isomorphic pairs agree up
to isomorphism, so the ad-level computations run once per pair class
(reflect.PairCache, which holds the two bounds of every tower) and only the
degree bookkeeping runs per vertex.

Finiteness of the real root system is semi-decided with an explicit
coordinate bound, by one closure over the classes of vertices whose Cartan
matrices agree along every reflection path.  The infinite-dimensionality
certificate reads the Cartan type of a standard graph off the Dynkin diagram
of its Cartan matrix, by the bonds and arms of Kac's Table Fin, on integers
alone.  The Weyl groupoid's morphisms, whose composites the tests check the
root closure against, the closure per vertex and its classes live in
tests/oracles.py.
"""

from __future__ import annotations

from .errors import ResourceBoundError, ValidationError
from .groupdata import Report
from .reflect import PairCache, cartan_matrix, reflect
from .ydcat import ModuleTuple, module_canonical_key

DEFAULT_VERTEX_BOUND = 64
DEFAULT_ROOT_BOUND = 50

# Most (class, root) states the root closure may reach.  The count grows
# linearly with the coordinate bound B: W over Z2^3 and V over Z2xZ2xZ4 are
# one class each, with the same Cartan matrix, so both reach about 12 B
# states.  On a 2-core VM both exit 5 from B = 41,667, after 1.7-2.3 s of
# `roots` with a peak of 86 MB; B = 41,666 ends in exit 0.
MAX_ROOT_STATES = 500_000


class Vertex:
    def __init__(self, vid: int, tuple_: ModuleTuple, cartan: list):
        self.vid, self.tuple_ = vid, tuple_
        self.cartan = cartan  # theta x theta integer matrix


class SemiCartanGraph:
    def __init__(self, theta: int, vertices=(), reflections=()):
        self.theta, self.vertices = theta, list(vertices)
        self.reflections = dict(reflections)  # (i, vid) -> vid

    def vertex_count(self) -> int:
        return len(self.vertices)

    def r(self, i: int, vid: int) -> int:
        return self.reflections[(i, vid)]

    def cartan(self, vid: int) -> list:
        return self.vertices[vid].cartan

    def vertex_label(self, vid: int) -> str:
        return ",".join(self.vertices[vid].tuple_.degree_names())


def build_cartan_graph(M: ModuleTuple, *, pairs: PairCache | None = None,
                       vertex_bound: int = DEFAULT_VERTEX_BOUND) -> SemiCartanGraph:
    """BFS over reflection sequences; vertices are keyed by complete iso keys."""
    theta = M.theta
    graph = SemiCartanGraph(theta=theta)
    pairs = pairs or PairCache()
    index: dict = {}  # tuple of module keys -> vid

    def find_or_add(t: ModuleTuple) -> tuple[int, bool]:
        key = tuple(module_canonical_key(m) for m in t)
        if key in index:
            return index[key], False
        if len(graph.vertices) >= vertex_bound:
            raise ResourceBoundError(
                f"vertex bound {vertex_bound} exceeded while closing the graph")
        vid = index[key] = len(graph.vertices)
        graph.vertices.append(Vertex(vid, t, cartan_matrix(t, pairs=pairs)))
        return vid, True

    root, _ = find_or_add(M)
    frontier = [root]
    while frontier:
        new = []
        for vid in frontier:
            t = graph.vertices[vid].tuple_
            for i in range(theta):
                rid, added = find_or_add(reflect(t, i, pairs=pairs))
                graph.reflections[(i, vid)] = rid
                if added:
                    new.append(rid)
        frontier = new
    return graph


def check_axioms(graph: SemiCartanGraph) -> Report:
    """CG1 (r_i^2 = id), CG2 (i-th row agreement), and GCM conditions."""
    bad = []
    for (i, vid), rid in sorted(graph.reflections.items()):
        back = graph.reflections.get((i, rid))
        if back != vid:
            bad.append(f"CG1 fails: r_{i + 1}^2({vid}) = {back} != {vid}")
        arow = graph.cartan(vid)[i]
        brow = graph.cartan(rid)[i]
        if arow != brow:
            bad.append(
                f"CG2 fails at vertex {vid}, i={i + 1}: rows {arow} vs {brow}")
    for v in graph.vertices:
        rep = is_generalized_cartan(v.cartan)
        if not rep.ok:
            bad.append(f"vertex {v.vid}: {rep.summary()}")
    return Report(not bad, bad)


def is_generalized_cartan(A: list) -> Report:
    bad = []
    n = len(A)
    for i in range(n):
        if len(A[i]) != n:
            return Report(False, ["matrix is not square"])
        if A[i][i] != 2:
            bad.append(f"a[{i}][{i}] = {A[i][i]} != 2")
        for j in range(n):
            if i != j:
                if A[i][j] > 0:
                    bad.append(f"a[{i}][{j}] = {A[i][j]} > 0")
                if (A[i][j] == 0) != (A[j][i] == 0):
                    bad.append(f"zero symmetry fails at ({i},{j})")
    return Report(not bad, bad)


# ---------------------------------------------------------------------------
# Real roots.
# ---------------------------------------------------------------------------

def _root_classes(graph: SemiCartanGraph) -> list:
    """Class of each vid: the coarsest partition with one Cartan matrix per
    class that every r_i maps to classes, by Moore refinement, numbered by
    first vertex.  One class per vertex if some r_i is not an involution."""
    n = graph.vertex_count()
    r = [[graph.r(i, vid) for vid in range(n)] for i in range(graph.theta)]
    if any(ri[ri[vid]] != vid for ri in r for vid in range(n)):
        return list(range(n))
    keys, count = [tuple(map(tuple, v.cartan)) for v in graph.vertices], 0
    while True:
        ids = {}
        cls = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            return cls
        count = len(ids)
        keys = [(c,) + tuple(cls[ri[vid]] for ri in r)
                for vid, c in enumerate(cls)]


def real_roots(graph: SemiCartanGraph,
               bound: int = DEFAULT_ROOT_BOUND) -> tuple[dict, bool]:
    """Real roots at every vertex: vid -> sorted roots, and a truncation flag.

    s_i^X maps R^X onto R^{r_i(X)}, and reaching a root of X reads only the
    Cartan rows on the way.  So one closure over states (C, beta), C a class
    of _root_classes, from the simple roots at every class by steps to
    (r_i(C), s_i^C beta), reaches every root of every vertex: r_i is an
    involution, so a path of classes ending at X's class lifts to one of
    vertices ending at X.  The vertices of a class share one list.  It is
    truncated, with an empty dict, as soon as a reached root has a
    coordinate of absolute value above the bound: then some vertex's root
    set leaves the box, and no vertex's list is reported.  Reaching more
    than MAX_ROOT_STATES states raises ResourceBoundError.
    """
    theta = graph.theta
    cls = _root_classes(graph)
    firsts = [graph.vertices[cls.index(c)] for c in range(len(set(cls)))]
    # Per class, per i: r_i(C) and the (position, coefficient) pairs of
    # s_i^C beta at i = beta_i - sum_j a_ij beta_j, over a state
    # (class, beta_1, ..., beta_theta).
    steps = [[(cls[graph.r(i, v.vid)],
               tuple((j + 1, int(j == i) - a) for j, a in enumerate(v.cartan[i])
                     if a != int(j == i)))
              for i in range(theta)] for v in firsts]
    frontier = [(c,) + tuple(int(k == j) for k in range(theta))
                for c in range(len(firsts)) for j in range(theta)]
    seen = set(frontier)
    while frontier:
        new = []
        for state in frontier:
            for i, (target, terms) in enumerate(steps[state[0]]):
                coord = 0
                for k, c in terms:
                    coord += c * state[k]
                if abs(coord) > bound:
                    return {}, True
                nxt = (target,) + state[1:i + 1] + (coord,) + state[i + 2:]
                if nxt not in seen:
                    if len(seen) >= MAX_ROOT_STATES:
                        raise ResourceBoundError(
                            f"root closure exceeds {MAX_ROOT_STATES} states "
                            f"below coordinate bound {bound}")
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    roots = [[] for _ in firsts]
    for state in sorted(seen):
        roots[state[0]].append(state[1:])
    return {vid: roots[c] for vid, c in enumerate(cls)}, False


class FinitenessResult:
    def __init__(self, status: str, roots: dict):
        # "finite" | "not-finite-within-bound"; vid -> real roots if finite
        self.status, self.roots = status, roots

    def is_finite(self) -> bool:
        return self.status == "finite"


def is_finite(graph: SemiCartanGraph,
              bound: int = DEFAULT_ROOT_BOUND) -> FinitenessResult:
    """Tri-state finiteness: never reports 'finite' from a truncated closure."""
    roots, truncated = real_roots(graph, bound)
    status = "not-finite-within-bound" if truncated else "finite"
    return FinitenessResult(status, roots)


def is_standard(graph: SemiCartanGraph) -> bool:
    mats = [v.cartan for v in graph.vertices]
    return all(m == mats[0] for m in mats)


# ---------------------------------------------------------------------------
# Finite-Cartan-type classification.
# ---------------------------------------------------------------------------

def _components(A: list) -> list:
    n = len(A)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in range(n):
                if not seen[y] and (A[x][y] != 0 or A[y][x] != 0):
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _dynkin_name(A: list, comp: list) -> str | None:
    """Name of a connected component's Dynkin diagram, or None if not finite.

    Kac's Table Fin (Infinite-dimensional Lie algebras, 4.8): a finite-type
    diagram is a tree with at most one multiple bond, of product 2 or 3,
    and a multiple bond never meets a branch node.  B_n and C_n differ by
    the bond's direction: B_n has a_{inner, leaf} = -2.
    """
    n = len(comp)
    nbrs = {x: [y for y in comp if y != x and A[x][y] != 0] for x in comp}
    bonds = [(x, y) for x in comp for y in nbrs[x] if x < y]
    multiple = [(x, y) for x, y in bonds if A[x][y] * A[y][x] > 1]
    branches = [x for x in comp if len(nbrs[x]) > 2]
    if (len(bonds) != n - 1 or len(multiple) > 1
            or any(A[x][y] * A[y][x] >= 4 for x, y in multiple)
            or (multiple and branches)):
        return None
    if multiple:
        (x, y), = multiple
        if A[x][y] * A[y][x] == 3:
            return "G2" if n == 2 else None
        if n == 2:
            return "B2"
        if len(nbrs[x]) == len(nbrs[y]) == 2:
            return "F4" if n == 4 else None
        inner, leaf = (x, y) if len(nbrs[y]) == 1 else (y, x)
        return f"B{n}" if A[inner][leaf] == -2 else f"C{n}"
    if not branches:
        return f"A{n}"
    if len(branches) > 1 or len(nbrs[branches[0]]) > 3:
        return None

    def arm(prev, cur):
        length = 1
        while len(nbrs[cur]) == 2:
            prev, cur = cur, next(z for z in nbrs[cur] if z != prev)
            length += 1
        return length

    arms = sorted(arm(branches[0], y) for y in nbrs[branches[0]])
    if arms[:2] == [1, 1]:
        return f"D{n}"
    return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}.get(tuple(arms))


class CartanTypeResult:
    def __init__(self, is_finite_type: bool, components: list | None):
        self.is_finite_type = is_finite_type
        self.components = components  # sorted Dynkin names when finite type

    def __eq__(self, other):
        if not isinstance(other, CartanTypeResult):
            return NotImplemented
        return (self.is_finite_type, self.components) == (
            other.is_finite_type, other.components)

    def describe(self) -> str:
        if not self.is_finite_type:
            return "not finite type"
        return " + ".join(self.components)


def finite_cartan_type(A: list) -> CartanTypeResult:
    """Classify a generalized Cartan matrix: Dynkin components or not finite.

    The matrix is of finite type iff every connected component of its
    diagram is; each component is named by _dynkin_name.
    """
    rep = is_generalized_cartan(A)
    if not rep.ok:
        raise ValidationError("not a generalized Cartan matrix: " + rep.summary())
    names = [_dynkin_name(A, comp) for comp in _components(A)]
    if None in names:
        return CartanTypeResult(False, None)
    return CartanTypeResult(True, sorted(names))


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

class Certificate:
    def __init__(self, verdict: str, standard: bool, cartan: list,
                 cartan_type: CartanTypeResult, vertex_count: int):
        # "infinite-dimensional" | "no conclusion from this criterion"
        self.verdict = verdict
        self.standard, self.cartan, self.cartan_type = standard, cartan, cartan_type
        self.vertex_count = vertex_count

    def lines(self) -> list:
        out = [f"verdict: {self.verdict}",
               f"semi-Cartan graph: {self.vertex_count} vertices, axioms pass",
               f"standard: {'yes' if self.standard else 'no'}",
               "Cartan matrix at the start vertex:"]
        for row in self.cartan:
            out.append("  [" + ", ".join(f"{x:>2}" for x in row) + "]")
        out.append(f"Cartan type: {self.cartan_type.describe()}")
        return out


def infinite_dim_certificate(M: ModuleTuple, *,
                             pairs: PairCache | None = None,
                             vertex_bound: int = DEFAULT_VERTEX_BOUND) -> Certificate:
    """Contrapositive of the finite-dimensionality criterion.

    If the reflection graph closes, is standard, and its Cartan matrix is
    not of finite type, the Nichols algebra of the tuple is
    infinite-dimensional; otherwise this criterion is silent.
    """
    graph = build_cartan_graph(M, pairs=pairs, vertex_bound=vertex_bound)
    axioms = check_axioms(graph)
    if not axioms.ok:
        raise ValidationError("semi-Cartan axioms failed: " + axioms.summary())
    standard = is_standard(graph)
    A = graph.cartan(0)
    ctype = finite_cartan_type(A)
    if standard and not ctype.is_finite_type:
        verdict = "infinite-dimensional"
    else:
        verdict = "no conclusion from this criterion"
    return Certificate(verdict, standard, A, ctype, graph.vertex_count())


def to_dot(graph: SemiCartanGraph) -> str:
    """Deterministic Graphviz rendering: vertices carry degrees and Cartan data."""
    lines = ["graph semicartan {", "  node [shape=box, fontname=monospace];"]
    for v in graph.vertices:
        mat = "\\n".join(" ".join(f"{x:>2}" for x in row) for row in v.cartan)
        lines.append(f'  v{v.vid} [label="[{graph.vertex_label(v.vid)}]\\n{mat}"];')
    drawn = set()
    for (i, vid), rid in sorted(graph.reflections.items()):
        edge = (min(vid, rid), max(vid, rid), i)
        if edge in drawn:
            continue
        drawn.add(edge)
        lines.append(f'  v{vid} -- v{rid} [label="{i + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
