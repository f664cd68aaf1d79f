"""Command-line front end: session files, dispatch, deterministic emission.

Session files are JSON with a group stanza, a cocycle stanza, named module
stanzas (explicit or presets) and named tuples; see README for the schema.
Session(data) checks each stanza in the order `validate` reports it:
cutoffs, group, cocycle and pentagon, then modules by name (a preset as it
is built, an explicit one by yd_axiom_check), then tuples.  The first
failure ends the load.  Output is deterministic: fixed iteration orders,
no timestamps.

Exit codes (2 to 5 are the `code` attributes of the types in errors.py):
  0  success
  1  golden-file mismatch (or missing golden file)
  2  parse error (bad JSON, bad schema or an unknown key, bad flags)
  3  validation failure (cocycle, group, or module axioms), or any other
     unexpected exception
  4  undecided at the ad cutoff or the truncation degree
  5  resource bound exceeded (vertex bound, truncation degree, group order,
     conductor, module dimension, Nichols block size, root-closure states),
     or MemoryError/RecursionError.  A truncation degree (--max-degree or
     the max_degree cutoff) above nichols.MAX_TRUNCATION_DEGREE = 64 exits
     5; at 64 a never-vanishing ad tower over two one-letter slots takes
     about 1.6 s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cyclo import parse_scalar
from .errors import (ResourceBoundError, UndecidedAtCutoff, ValidationError,
                     YDWeylError)
from .groupdata import (Cocycle3, Group, check_3cocycle, group_from_cayley,
                        make_abelian_group, sign_cocycle)
from .nichols import nichols_truncate
from .reflect import (DEFAULT_AD_CUTOFF, DEFAULT_TRUNCATION_DEGREE,
                      PairCache, ad_power_module, cartan_matrix, reflect)
from .weylgraph import (DEFAULT_ROOT_BOUND, DEFAULT_VERTEX_BOUND,
                        build_cartan_graph, check_axioms,
                        infinite_dim_certificate, is_finite, is_standard,
                        to_dot)
from .ydcat import (PRESET_NAMES, ModuleTuple, YDModule, preset_module,
                    yd_axiom_check)

EXIT_OK = 0
EXIT_GOLDEN = 1
EXIT_PARSE = YDWeylError.code
EXIT_VALIDATION = ValidationError.code
EXIT_UNDECIDED = UndecidedAtCutoff.code
EXIT_RESOURCE = ResourceBoundError.code


# Smallest accepted value of each session cutoff, matching the CLI flags
# (--max-degree >= 0, --bound >= 1).
CUTOFF_MINIMA = {"max_degree": 0, "ad_cutoff": 0, "vertex_bound": 1,
                 "root_bound": 1}


class SessionError(YDWeylError):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class Session:
    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise SessionError("session must be a JSON object", EXIT_PARSE)
        _known_keys(data, ("group", "cocycle", "modules", "tuples", "cutoffs"),
                    "unknown session key")
        self.cutoffs = {"max_degree": DEFAULT_TRUNCATION_DEGREE,
                        "ad_cutoff": DEFAULT_AD_CUTOFF,
                        "vertex_bound": DEFAULT_VERTEX_BOUND,
                        "root_bound": DEFAULT_ROOT_BOUND}
        cutoffs = _object(data, "cutoffs")
        _known_keys(cutoffs, CUTOFF_MINIMA, "unknown cutoff")
        for key, value in cutoffs.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise SessionError(f"cutoff {key!r} must be an integer, "
                                   f"got {value!r}", EXIT_PARSE)
            if value < CUTOFF_MINIMA[key]:
                raise SessionError(f"cutoff {key!r} must be >= "
                                   f"{CUTOFF_MINIMA[key]}, got {value}",
                                   EXIT_PARSE)
            self.cutoffs[key] = value
        self.group = self._load_group(data)
        self.cocycle = self._load_cocycle(data)
        self.report = self._cocycle_lines()
        self.modules: dict[str, YDModule] = {}
        for name, stanza in sorted(_object(data, "modules").items()):
            mod = self.modules[name] = self._load_module(name, stanza)
            self.report.append(f"module {name}: dim {mod.dim}: pass")
        self.tuples: dict[str, ModuleTuple] = {}
        for name, entries in sorted(_object(data, "tuples").items()):
            if (not isinstance(entries, list)
                    or not all(isinstance(e, str) for e in entries)):
                raise SessionError(f"tuple {name!r} must be a list of module "
                                   f"names", EXIT_PARSE)
            try:
                mods = [self.modules[e] for e in entries]
            except KeyError as exc:
                raise SessionError(f"tuple {name!r} references unknown module "
                                   f"{exc.args[0]!r}", EXIT_PARSE)
            self.tuples[name] = ModuleTuple(mods)

    def _load_group(self, data) -> Group:
        stanza = data.get("group")
        if not isinstance(stanza, dict):
            raise SessionError("missing or malformed 'group' stanza", EXIT_PARSE)
        _one_form(stanza, ("abelian", "cayley"), "group")
        try:
            if "abelian" in stanza:
                return make_abelian_group(stanza["abelian"])
            if "cayley" in stanza:
                return group_from_cayley(stanza["cayley"])
        except ValidationError as exc:
            raise SessionError(str(exc), EXIT_VALIDATION)
        except (TypeError, ValueError) as exc:
            raise SessionError(f"bad group stanza: {exc}", EXIT_PARSE)
        raise SessionError("group stanza needs 'abelian' or 'cayley'", EXIT_PARSE)

    def _load_cocycle(self, data) -> Cocycle3:
        stanza = data.get("cocycle")
        if not isinstance(stanza, dict):
            raise SessionError("missing or malformed 'cocycle' stanza", EXIT_PARSE)
        _one_form(stanza, ("sign3", "trivial", "table"), "cocycle")
        try:
            if stanza.get("sign3"):
                return sign_cocycle(self.group)
            if stanza.get("trivial"):
                return Cocycle3.trivial(self.group)
            if "table" in stanza:
                flat = _flatten(stanza["table"])
                values = [_scalar(x) for x in flat]
                return Cocycle3(self.group, values)
        except ValidationError as exc:
            raise SessionError(str(exc), EXIT_VALIDATION)
        except (TypeError, ValueError) as exc:
            raise SessionError(f"bad cocycle stanza: {exc}", EXIT_PARSE)
        raise SessionError("cocycle stanza needs 'sign3', 'trivial' or 'table'",
                           EXIT_PARSE)

    def _load_module(self, name, stanza) -> YDModule:
        if isinstance(stanza, dict):
            known = ("preset",) if "preset" in stanza else ("degrees", "action")
            _known_keys(stanza, known, f"module {name!r}: unknown key")
        try:
            if "preset" in stanza:
                preset = stanza["preset"]
                if preset not in PRESET_NAMES:
                    raise SessionError(f"unknown preset {preset!r}", EXIT_PARSE)
                return preset_module(preset, self.group, self.cocycle, name)
            degrees = stanza["degrees"]
            if not isinstance(stanza["action"], dict):
                raise SessionError(f"module {name!r}: 'action' must be a JSON "
                                   f"object", EXIT_PARSE)
            if not isinstance(degrees, list) or not all(map(_is_int, degrees)):
                raise ValueError(f"'degrees' must be a list of integers, got "
                                 f"{degrees!r}")
            action = {}
            for g, mat in stanza["action"].items():
                if g != str(int(g)):
                    raise ValueError(f"action key {g!r} is not a plain "
                                     f"integer")
                if not (isinstance(mat, list) and len(mat) == len(degrees)
                        and all(isinstance(row, list)
                                and len(row) == len(degrees) for row in mat)):
                    raise ValueError(f"action of {g} must be a "
                                     f"{len(degrees)}x{len(degrees)} matrix")
                action[int(g)] = [[_scalar(x) for x in row] for row in mat]
            mod = YDModule(self.group, self.cocycle, degrees, action, name=name)
        except ValidationError as exc:
            raise SessionError(f"module {name!r}: {exc}", EXIT_VALIDATION)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise SessionError(f"malformed module stanza {name!r}: {exc}",
                               EXIT_PARSE)
        rep = yd_axiom_check(mod)
        if not rep.ok:
            raise SessionError("\n".join(self.report + [
                f"module {name}: dim {mod.dim}: {rep.summary()}"]),
                EXIT_VALIDATION)
        return mod

    def pairs(self) -> PairCache:
        """Pair classes' ad towers under the session's two bounds."""
        return PairCache(self.cutoffs["ad_cutoff"], self.cutoffs["max_degree"])

    def resolve(self, name) -> ModuleTuple:
        if name in self.tuples:
            return self.tuples[name]
        if name in self.modules:
            return ModuleTuple([self.modules[name]])
        raise SessionError(f"unknown module or tuple {name!r}", EXIT_PARSE)

    def _cocycle_lines(self) -> list[str]:
        """The report's group and cocycle lines; exit 3 if the pentagon fails."""
        crep = check_3cocycle(self.cocycle)
        n4 = self.group.order ** 4
        lines = [f"group: order {self.group.order}: pass",
                 f"cocycle: pentagon over {n4} quadruples: {crep.summary()}"]
        if not crep.ok:
            raise SessionError("\n".join(lines), EXIT_VALIDATION)
        return lines


def _object(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise SessionError(f"{key!r} must be a JSON object", EXIT_PARSE)
    return value


def _known_keys(stanza: dict, known, what: str) -> None:
    for key in stanza:
        if key not in known:
            raise SessionError(f"{what} {key!r}; expected one of "
                               f"{', '.join(known)}", EXIT_PARSE)


def _one_form(stanza: dict, forms: tuple, what: str) -> None:
    """A group or cocycle stanza names one of its forms and nothing else."""
    _known_keys(stanza, forms, f"{what} stanza: unknown key")
    if len(stanza) > 1:
        raise SessionError(f"{what} stanza names {len(stanza)} forms "
                           f"({', '.join(stanza)}); expected one", EXIT_PARSE)


def _flatten(nested):
    out = []
    stack = [nested]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(reversed(x))
        else:
            out.append(x)
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _scalar(x):
    if _is_int(x):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    raise ValueError(f"scalar literals are strings or integers, got {x!r}")


def load_session(path: str) -> Session:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SessionError(f"cannot read session file: {exc}", EXIT_PARSE)
    except json.JSONDecodeError as exc:
        raise SessionError(f"session file is not valid JSON: {exc}", EXIT_PARSE)
    return Session(data)


# ---------------------------------------------------------------------------
# Commands.  Each returns the emitted text.
# ---------------------------------------------------------------------------

def cmd_validate(session: Session, args) -> str:
    return "\n".join(session.report + ["all checks passed"]) + "\n"


def cmd_nichols(session: Session, args) -> str:
    target = session.resolve(args.name)
    trunc = nichols_truncate(target, args.max_degree)
    lines = [f"graded dimensions of B({args.name}) up to degree {args.max_degree}"]
    dims = trunc.graded_dims()
    support = [(md, d) for n in range(1, args.max_degree + 1)
               for md in trunc.multidegrees(n)
               if (d := trunc.dim_multidegree(md))]
    if args.json:
        payload = {
            "dims": list(dims),
            "multidegree_dims": {" ".join(map(str, md)): d
                                 for md, d in support},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines.append("degree  dim")
    for n, d in enumerate(dims):
        lines.append(f"{n:>6}  {d}")
    if target.theta > 1:
        lines.append("support (multidegree: dim):")
        for md, d in support:
            lines.append(f"  ({', '.join(map(str, md))}): {d}")
    return "\n".join(lines) + "\n"


def cmd_ad(session: Session, args) -> str:
    target = session.resolve(args.tuple)
    i, j = args.i - 1, args.j - 1
    if not (0 <= i < target.theta and 0 <= j < target.theta) or i == j:
        raise SessionError("ad needs distinct 1-based slot indices", EXIT_PARSE)
    levels = ad_power_module(target, i, j, cutoff=session.cutoffs["ad_cutoff"],
                             max_degree=session.cutoffs["max_degree"])
    lines = [f"ad levels for slots ({args.i}, {args.j}) of {args.tuple}"]
    for level in levels.levels:
        degs = ", ".join(session.group.element_name(d)
                         for d in level.module.degrees)
        lines.append(f"level {level.n}: dim {len(level.basis)} degrees [{degs}]")
    if levels.undecided:
        lines.append(f"undecided at {levels.bound}")
        raise SessionError("\n".join(lines), EXIT_UNDECIDED)
    lines.append(f"vanishing at level {levels.m + 1}: m = {levels.m}")
    return "\n".join(lines) + "\n"


def cmd_cartan(session: Session, args) -> str:
    target = session.resolve(args.tuple)
    A = cartan_matrix(target, pairs=session.pairs())
    lines = [f"Cartan matrix of {args.tuple}"]
    for row in A:
        lines.append("  [" + ", ".join(f"{x:>2}" for x in row) + "]")
    return "\n".join(lines) + "\n"


def cmd_reflect(session: Session, args) -> str:
    target = session.resolve(args.tuple)
    i = args.i - 1
    if not 0 <= i < target.theta:
        raise SessionError("reflect needs a 1-based slot index", EXIT_PARSE)
    refl = reflect(target, i, pairs=session.pairs())
    payload = {"modules": {}}
    for k, mod in enumerate(refl):
        stanza = {
            "degrees": list(mod.degrees),
            "action": {str(g): [[str(mod.act_matrix(g)[r][c])
                                 for c in range(mod.dim)]
                                for r in range(mod.dim)]
                       for g in session.group.elements()},
        }
        payload["modules"][f"R{args.i}_{args.tuple}_{k + 1}"] = stanza
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _graph_for(session: Session, name: str):
    target = session.resolve(name)
    return build_cartan_graph(target, pairs=session.pairs(),
                              vertex_bound=session.cutoffs["vertex_bound"])


def cmd_graph(session: Session, args) -> str:
    graph = _graph_for(session, args.tuple)
    rep = check_axioms(graph)
    out = to_dot(graph)
    out += (f"// vertices: {graph.vertex_count()}\n"
            f"// axioms: {rep.summary()}\n"
            f"// standard: {'yes' if is_standard(graph) else 'no'}\n")
    if not rep.ok:
        raise SessionError(out, EXIT_VALIDATION)
    return out


def cmd_roots(session: Session, args) -> str:
    graph = _graph_for(session, args.tuple)
    bound = (args.bound if args.bound is not None
             else session.cutoffs["root_bound"])
    result = is_finite(graph, bound)
    lines = [f"real roots of {args.tuple} (coordinate bound {bound})"]
    for v in graph.vertices:
        label = graph.vertex_label(v.vid)
        if not result.is_finite():
            lines.append(f"vertex {v.vid} [{label}]: truncated at bound {bound}")
        else:
            roots = result.roots[v.vid]
            shown = " ".join("(" + ",".join(map(str, r)) + ")" for r in roots)
            lines.append(f"vertex {v.vid} [{label}]: {len(roots)} roots: {shown}")
    lines.append(f"finiteness: {result.status}")
    return "\n".join(lines) + "\n"


def cmd_certify(session: Session, args) -> str:
    target = session.resolve(args.tuple)
    cert = infinite_dim_certificate(
        target, pairs=session.pairs(),
        vertex_bound=session.cutoffs["vertex_bound"])
    return "\n".join(cert.lines()) + "\n"


COMMANDS = {
    "validate": cmd_validate,
    "nichols": cmd_nichols,
    "ad": cmd_ad,
    "cartan": cmd_cartan,
    "reflect": cmd_reflect,
    "graph": cmd_graph,
    "roots": cmd_roots,
    "certify": cmd_certify,
}


def _golden_name(args) -> str:
    parts = [args.command]
    for attr in ("name", "tuple", "i", "j", "max_degree", "bound"):
        value = getattr(args, attr, None)
        if value is not None:
            parts.append(str(value))
    if getattr(args, "json", False):
        parts.append("json")
    return "_".join(parts) + ".txt"


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ydweyl",
        description="Nichols-algebra reflections and Weyl groupoids over (kG, Phi)")
    parser.add_argument("--session", required=True, help="session JSON file")
    parser.add_argument("--golden", metavar="DIR",
                        help="compare emission against DIR/<command>... and "
                             "exit 1 on mismatch")
    parser.add_argument("--golden-write", metavar="DIR",
                        help="write the emission as the new golden file")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    p = sub.add_parser("nichols")
    p.add_argument("name")
    p.add_argument("--max-degree", type=_int_at_least(0), default=4,
                   dest="max_degree")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("ad")
    p.add_argument("tuple")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p = sub.add_parser("cartan")
    p.add_argument("tuple")
    p = sub.add_parser("reflect")
    p.add_argument("tuple")
    p.add_argument("i", type=int)
    p = sub.add_parser("graph")
    p.add_argument("tuple")
    p = sub.add_parser("roots")
    p.add_argument("tuple")
    p.add_argument("--bound", type=_int_at_least(1), default=None)
    p = sub.add_parser("certify")
    p.add_argument("tuple")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        session = load_session(args.session)
        output = COMMANDS[args.command](session, args)
        sys.stdout.write(output)
        if args.golden_write:
            os.makedirs(args.golden_write, exist_ok=True)
            path = os.path.join(args.golden_write, _golden_name(args))
            with open(path, "w") as fh:
                fh.write(output)
    except YDWeylError as exc:
        print(f"{exc.label}{exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return (EXIT_RESOURCE if isinstance(exc, (MemoryError, RecursionError))
                else EXIT_VALIDATION)
    if args.golden:
        path = os.path.join(args.golden, _golden_name(args))
        try:
            with open(path) as fh:
                expected = fh.read()
        except OSError:
            print(f"golden file missing: {path}", file=sys.stderr)
            return EXIT_GOLDEN
        if expected != output:
            print(f"golden mismatch against {path}", file=sys.stderr)
            return EXIT_GOLDEN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
