"""Semi-Cartan graphs, Weyl groupoids, real roots and finiteness criteria.

Vertices are isomorphism classes of module tuples, discovered by BFS over
reflection sequences.  A tuple's class is the tuple of its modules' complete
iso keys (twisted-double characters, see ydcat.module_canonical_key), so
closing the graph is dict lookups.  Reflections of isomorphic pairs agree up
to isomorphism, so the ad-level computations run once per pair class
(reflect.PairCache, which holds the two bounds of every tower) and only the
degree bookkeeping runs per vertex.

Finiteness of the real root system is semi-decided with an explicit
coordinate bound; for standard graphs the finite-Cartan-type classifier
gives the definitive answer used by the infinite-dimensionality certificate.
The Weyl groupoid's morphisms, whose composites the tests check the root
closure against, live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .cyclo import CycScalar, det
from .errors import ResourceBoundError, ValidationError
from .groupdata import Report
from .reflect import PairCache, cartan_matrix, reflect
from .ydcat import ModuleTuple, module_canonical_key

DEFAULT_VERTEX_BOUND = 64
DEFAULT_ROOT_BOUND = 50

# Most (vertex, root) states the root closure may reach.  The count grows
# linearly with the coordinate bound B (about 288 B on W over Z2^3, 1,150 B
# on V over Z2xZ2xZ4); on a 2-core VM W at B = 1600 reaches 460,734 states in
# 1.3 s and V at B = 430 reaches 495,084 in 1.4 s, each adding about 100 MB.
MAX_ROOT_STATES = 500_000


@dataclass
class Vertex:
    vid: int
    tuple_: ModuleTuple
    key: tuple
    cartan: list  # theta x theta integer matrix


@dataclass
class SemiCartanGraph:
    theta: int
    vertices: list = field(default_factory=list)
    reflections: dict = field(default_factory=dict)  # (i, vid) -> vid

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
        graph.vertices.append(Vertex(vid, t, key, cartan_matrix(t, pairs=pairs)))
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

def real_roots(graph: SemiCartanGraph,
               bound: int = DEFAULT_ROOT_BOUND) -> tuple[dict, bool]:
    """Real roots at every vertex: vid -> sorted roots, and a truncation flag.

    s_i^X maps R^X onto R^{r_i(X)}, so one closure over pairs (X, beta),
    starting from the simple roots at every vertex and stepping to
    (r_i(X), s_i^X beta), reaches every root of every vertex.  It is
    truncated, with an empty dict, as soon as a reached root has a
    coordinate of absolute value above the bound: then some vertex's root
    set leaves the box, and no vertex's list is reported.  Reaching more
    than MAX_ROOT_STATES states raises ResourceBoundError.
    """
    theta = graph.theta
    simple = [tuple(int(k == j) for k in range(theta)) for j in range(theta)]
    frontier = [(v.vid, a) for v in graph.vertices for a in simple]
    seen = set(frontier)
    while frontier:
        new = []
        for vid, beta in frontier:
            A = graph.cartan(vid)
            for i in range(theta):
                # s_i^X beta = beta - (sum_j a_ij beta_j) alpha_i
                coord = beta[i] - sum(a * b for a, b in zip(A[i], beta))
                if abs(coord) > bound:
                    return {}, True
                state = (graph.r(i, vid), beta[:i] + (coord,) + beta[i + 1:])
                if state not in seen:
                    if len(seen) >= MAX_ROOT_STATES:
                        raise ResourceBoundError(
                            f"root closure exceeds {MAX_ROOT_STATES} states "
                            f"below coordinate bound {bound}")
                    seen.add(state)
                    new.append(state)
        frontier = new
    roots = {v.vid: [] for v in graph.vertices}
    for vid, beta in sorted(seen):
        roots[vid].append(beta)
    return roots, False


@dataclass
class FinitenessResult:
    status: str                  # "finite" | "not-finite-within-bound"
    bound: int
    roots: dict                  # vid -> sorted real roots (empty unless finite)

    def is_finite(self) -> bool:
        return self.status == "finite"


def is_finite(graph: SemiCartanGraph,
              bound: int = DEFAULT_ROOT_BOUND) -> FinitenessResult:
    """Tri-state finiteness: never reports 'finite' from a truncated closure."""
    roots, truncated = real_roots(graph, bound)
    status = "not-finite-within-bound" if truncated else "finite"
    return FinitenessResult(status, bound, roots)


def is_standard(graph: SemiCartanGraph) -> bool:
    mats = [v.cartan for v in graph.vertices]
    return all(m == mats[0] for m in mats)


# ---------------------------------------------------------------------------
# Finite-Cartan-type classification.
# ---------------------------------------------------------------------------

def _principal_minor_positive(A: list) -> bool:
    n = len(A)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = [[CycScalar.from_rational(A[r][c]) for c in subset]
                   for r in subset]
            if det(sub).rational_value() <= 0:
                return False
    return True


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


def _catalog(n: int) -> list:
    """Finite-type Cartan matrices of rank n, with their names."""
    def chain(n):
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(n)] for i in range(n)]
    out = []
    out.append((f"A{n}", chain(n)))
    if n >= 2:
        b = chain(n)
        b[n - 2][n - 1] = -2
        out.append((f"B{n}", b))
    if n >= 3:
        c = chain(n)
        c[n - 1][n - 2] = -2
        out.append((f"C{n}", c))
    if n >= 4:
        d = chain(n - 1)
        for row in d:
            row.append(0)
        d.append([0] * n)
        d[n - 1][n - 1] = 2
        # nodes n-2 and n-1 both attach to node n-3
        d[n - 3][n - 1] = d[n - 1][n - 3] = -1
        out.append((f"D{n}", d))
    if n == 2:
        out.append(("G2", [[2, -1], [-3, 2]]))
    if n == 4:
        f = chain(4)
        f[1][2] = -2
        out.append(("F4", f))
    if n in (6, 7, 8):
        e = chain(n - 1)
        for row in e:
            row.append(0)
        e.append([0] * n)
        e[n - 1][n - 1] = 2
        # branch node: attach the last simple root to node 2 (0-indexed)
        e[2][n - 1] = e[n - 1][2] = -1
        out.append((f"E{n}", e))
    return out


def _permutation_match(A: list, B: list) -> bool:
    """Simultaneous row/column permutation equivalence of integer matrices."""
    n = len(A)
    if len(B) != n:
        return False

    def signature(M, k):
        offdiag = sorted((M[k][j], M[j][k]) for j in range(n) if j != k)
        return tuple(offdiag)

    siga = [signature(A, k) for k in range(n)]
    sigb = [signature(B, k) for k in range(n)]
    if sorted(siga) != sorted(sigb):
        return False

    assignment = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or siga[i] != sigb[j]:
                continue
            ok = True
            for k in range(i):
                if A[i][k] != B[j][assignment[k]] or A[k][i] != B[assignment[k]][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)


@dataclass
class CartanTypeResult:
    is_finite_type: bool
    components: list | None  # sorted Dynkin component names when finite type

    def describe(self) -> str:
        if not self.is_finite_type:
            return "not finite type"
        return " + ".join(self.components)


def finite_cartan_type(A: list) -> CartanTypeResult:
    """Classify a generalized Cartan matrix: Dynkin components or not finite.

    Finite type iff all principal minors are positive; component names are
    then matched against the rank-n catalog under simultaneous permutation.
    """
    rep = is_generalized_cartan(A)
    if not rep.ok:
        raise ValidationError("not a generalized Cartan matrix: " + rep.summary())
    if not _principal_minor_positive(A):
        return CartanTypeResult(False, None)
    names = []
    for comp in _components(A):
        sub = [[A[r][c] for c in comp] for r in comp]
        n = len(comp)
        if n > 8:
            raise ValidationError(
                f"finite-type component of rank {n} > 8 cannot exist; "
                "classification inconsistency")
        name = next((nm for nm, cat in _catalog(n)
                     if _permutation_match(sub, cat)), None)
        if name is None:
            raise ValidationError(
                "positive-definite GCM matches no Dynkin diagram; "
                "classification inconsistency")
        names.append(name)
    return CartanTypeResult(True, sorted(names))


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    verdict: str            # "infinite-dimensional" | "no conclusion from this criterion"
    standard: bool
    cartan: list
    cartan_type: CartanTypeResult | None
    vertex_count: int
    axioms: Report

    def lines(self) -> list:
        out = [f"verdict: {self.verdict}",
               f"semi-Cartan graph: {self.vertex_count} vertices, axioms "
               f"{'pass' if self.axioms.ok else 'FAIL'}",
               f"standard: {'yes' if self.standard else 'no'}",
               "Cartan matrix at the start vertex:"]
        for row in self.cartan:
            out.append("  [" + ", ".join(f"{x:>2}" for x in row) + "]")
        if self.cartan_type is not None:
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
    return Certificate(verdict, standard, A, ctype, graph.vertex_count(), axioms)


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
