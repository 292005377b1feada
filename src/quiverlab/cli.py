"""Command-line front end.

Every subcommand reads a quiver file (or an ideal/module JSON document),
runs one pipeline from the library, and prints the result to stdout.  With
``--format json`` (the default) the output is a single compact JSON object
with sorted keys; ``--format text`` prints human-readable lines.

Exit codes: 0 success, 1 domain or input error, 2 usage error,
3 a bounded search ran out of budget.  A reader that closes stdout early
(``quiverlab ... | head``) ends the run with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import RelationSet, cocenter, graded_basis
from .corner import (bimodule_generators, corner_generators,
                     corner_presentation)
from .errors import BudgetExceeded, VerificationError
from .modules import (check_relations, generated_by_framing, induce_module,
                      invariant_fingerprint, module_from_json, module_to_json)
from .polynomials import PolyRing, buchberger, nilpotent_witness_search
from .quiverfile import QuiverFile, parse_quiver_file, print_quiver_file
from .quivers import delta, delta_k
from .repscheme import (RepCoordinates, build_acircledast, build_astar,
                        invariant_generators, rep_ideal)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_quiver_file(path: str) -> QuiverFile:
    return parse_quiver_file(_read(path))


def _load_ideal(path: str) -> tuple[PolyRing, list]:
    data = json.loads(_read(path))
    if not isinstance(data, dict):
        raise ValueError("an ideal document must be a JSON object")
    names = data.get("variables")
    if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
        raise ValueError("'variables' must be a list of variable names")
    ring = PolyRing(names, data.get("order", "degrevlex"))
    # a groebner output document ("basis") generates the same ideal
    gens = data.get("generators", data.get("basis"))
    if not (isinstance(gens, list) and all(isinstance(t, str) for t in gens)):
        raise ValueError("ideal document needs a 'generators' or 'basis' list of strings")
    return ring, [ring.parse(t) for t in gens]


def _load_module(path: str, quiver):
    return module_from_json(quiver, json.loads(_read(path)))


def _one_dimension(qf: QuiverFile):
    if len(qf.dimensions) != 1:
        raise ValueError("the quiver file must contain exactly one dimension line")
    return qf.dimensions[0]


def _emit(args, data: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False))
    else:
        print(text.rstrip("\n"))


def _gen_row(g) -> dict:
    return {"name": g.name, "path": g.path.text(), "degree": g.degree,
            "source": g.source, "target": g.target}


def _gen_line(g) -> str:
    return (f"{g.name}: {g.path.text()}  (degree {g.degree}, "
            f"{g.source} -> {g.target})")


def _quiver_payload(quiver, relations) -> dict:
    return {
        "vertices": [{"name": v, "tag": quiver.tag(v)} for v in quiver.vertices],
        "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                   for a in quiver.arrows],
        "relations": [r.text() for r in relations],
    }


def _basis_for(qf: QuiverFile, cutoff: int):
    return graded_basis(qf.quiver, qf.relations, cutoff)


# -- handlers ------------------------------------------------------------------


def _cmd_basis(args) -> None:
    qf = _load_quiver_file(args.infile)
    basis = _basis_for(qf, args.cutoff)
    data = {"cutoff": args.cutoff, "dimensions": basis.dimensions,
            "finite_dimensional": basis.finite_dimensional,
            "top_degree": basis.top_degree}
    lines = [f"degree {d}: {n}" for d, n in enumerate(basis.dimensions)]
    if basis.finite_dimensional:
        lines.append(f"finite dimensional, top degree {basis.top_degree}")
    else:
        lines.append(f"not seen to terminate within degree {args.cutoff}")
    _emit(args, data, "\n".join(lines))


def _cmd_cocenter(args) -> None:
    qf = _load_quiver_file(args.infile)
    basis = _basis_for(qf, args.cutoff)
    result = cocenter(basis, args.cutoff)
    data = {"degree_dims": list(result.degree_dims)}
    lines = [f"degree {d}: {n}" for d, n in enumerate(result.degree_dims)]
    _emit(args, data, "\n".join(lines))


def _cmd_corner(args) -> None:
    qf = _load_quiver_file(args.infile)
    corner = corner_generators(_basis_for(qf, args.cutoff))
    data = {"k_top_degree": corner.k_top_degree,
            "degree_bound": corner.degree_bound,
            "verified_to": corner.verified_to,
            "generators": [_gen_row(g) for g in corner.generators]}
    lines = [f"interior top degree {corner.k_top_degree}; generator degrees "
             f"bounded by {corner.degree_bound}; spanning verified to degree "
             f"{corner.verified_to}"]
    lines += [_gen_line(g) for g in corner.generators]
    _emit(args, data, "\n".join(lines))


def _cmd_corner_present(args) -> None:
    qf = _load_quiver_file(args.infile)
    corner = corner_generators(_basis_for(qf, args.cutoff))
    pres = corner_presentation(corner)
    data = _quiver_payload(pres.quiver, pres.relations)
    for row in data["arrows"]:
        row["weight"] = pres.weights[row["name"]]
        row["ambient_path"] = pres.generator_paths[row["name"]].text()
    data["completeness"] = pres.completeness
    rels = RelationSet(pres.quiver, pres.relations, pres.weights)
    text = print_quiver_file(QuiverFile(pres.quiver, rels, weights=pres.weights))
    text += f"# completeness: {pres.completeness}\n"
    _emit(args, data, text)


def _cmd_bimodule_gens(args) -> None:
    qf = _load_quiver_file(args.infile)
    corner = corner_generators(_basis_for(qf, args.cutoff))
    bimod = bimodule_generators(corner)
    data = {"count": bimod.count, "verified_to": bimod.verified_to,
            "generators": [_gen_row(g) for g in bimod.generators]}
    lines = [f"{bimod.count} generators; spanning verified to degree "
             f"{bimod.verified_to}"]
    lines += [_gen_line(g) for g in bimod.generators]
    _emit(args, data, "\n".join(lines))


def _cmd_invariants(args) -> None:
    qf = _load_quiver_file(args.infile)
    coords = RepCoordinates(qf.quiver, _one_dimension(qf))
    gens = invariant_generators(coords, cycle_bound=args.cycle_bound,
                                path_bound=args.path_bound)
    data = {"variables": list(coords.ring.variables),
            "generators": [{"kind": g.kind, "expr": g.describe(),
                            "polynomial": g.polynomial.text()} for g in gens]}
    lines = [f"{g.describe()} = {g.polynomial.text()}" for g in gens]
    _emit(args, data, "\n".join(lines))


def _cmd_rep_ideal(args) -> None:
    qf = _load_quiver_file(args.infile)
    coords = RepCoordinates(qf.quiver, _one_dimension(qf))
    ideal = rep_ideal(coords, qf.relations)
    data = {"variables": list(coords.ring.variables), "order": coords.ring.order,
            "generators": [g.text() for g in ideal.generators]}
    lines = [g.text() for g in ideal.generators]
    _emit(args, data, "\n".join(lines))


def _cmd_groebner(args) -> None:
    ring, gens = _load_ideal(args.infile)
    gb = buchberger(gens, max_steps=args.max_steps, ring=ring)
    data = {"variables": list(ring.variables), "order": ring.order,
            "basis": gb.texts()}
    _emit(args, data, "\n".join(gb.texts()) or "0")


def _cmd_nilwitness(args) -> None:
    ring, gens = _load_ideal(args.infile)
    gb = buchberger(gens, max_steps=args.max_steps, ring=ring)
    witness = nilpotent_witness_search(gb, args.max_deg, args.max_pow,
                                       seed=args.seed, trials=args.trials,
                                       max_ops=args.max_ops)
    data = {"max_deg": args.max_deg, "max_pow": args.max_pow,
            "witness": None if witness is None else
            {"element": witness.element.text(), "power": witness.power}}
    if witness is None:
        text = (f"no nilpotent witness up to degree {args.max_deg} and "
                f"power {args.max_pow}")
    else:
        text = (f"({witness.element.text()})^{witness.power} lies in the "
                f"ideal, the element itself does not")
    _emit(args, data, text)


def _cmd_check_module(args) -> None:
    qf = _load_quiver_file(args.infile)
    mod = _load_module(args.module, qf.quiver)
    ok, residuals = check_relations(mod, qf.relations)
    flags = [r.is_zero() for r in residuals]
    data = {"valid": ok, "residual_is_zero": flags}
    lines = [f"relation {i}: {'ok' if f else 'violated'}"
             for i, f in enumerate(flags)]
    lines.append("valid" if ok else "invalid")
    _emit(args, data, "\n".join(lines))


def _cmd_induce(args) -> None:
    qf = _load_quiver_file(args.infile)
    corner = corner_generators(_basis_for(qf, args.cutoff))
    pres = corner_presentation(corner)
    bimod = bimodule_generators(corner)
    v_h = _load_module(args.module, pres.quiver)
    induced = induce_module(v_h, pres, bimod)
    data = module_to_json(induced)
    lines = [f"{v}: {n}" for v, n in sorted(data["dimension"].items())]
    _emit(args, data, "\n".join(lines))


def _cmd_fingerprint(args) -> None:
    qf = _load_quiver_file(args.infile)
    mod = _load_module(args.module, qf.quiver)
    coords = RepCoordinates(qf.quiver, mod.dims)
    gens = invariant_generators(coords, cycle_bound=args.cycle_bound,
                                path_bound=args.path_bound)
    values = invariant_fingerprint(mod, gens)
    data = {"generators": [g.describe() for g in gens],
            "fingerprint": [str(v) for v in values]}
    lines = [f"{g.describe()} = {v}" for g, v in zip(gens, values)]
    _emit(args, data, "\n".join(lines))


def _cmd_stability(args) -> None:
    qf = _load_quiver_file(args.infile)
    mod = _load_module(args.module, qf.quiver)
    ok, _ = check_relations(mod, qf.relations)
    if not ok:
        raise ValueError("module does not satisfy the relations")
    value = generated_by_framing(mod)
    data = {"generated_by_framing": value}
    _emit(args, data,
          "generated by the framing vector" if value
          else "not generated by the framing vector")


def _cmd_delta(args) -> None:
    d = delta(args.type, args.rank)
    dk = delta_k(args.type, args.rank)
    data = {"delta": dict(d), "delta_k": dict(dk)}
    lines = ["delta: " + " ".join(f"{v}={d[v]}" for v in d),
             "delta_k: " + " ".join(f"{v}={dk[v]}" for v in dk)]
    _emit(args, data, "\n".join(lines))


def _cmd_astar(args) -> None:
    qf = _load_quiver_file(args.infile)
    extended = build_astar(qf.quiver, qf.relations)
    data = _quiver_payload(qf.quiver, extended)
    text = print_quiver_file(QuiverFile(qf.quiver, extended))
    _emit(args, data, text)


def _cmd_acircledast(args) -> None:
    qf = _load_quiver_file(args.infile)
    quiver, relations = build_acircledast(qf.quiver, qf.relations)
    data = _quiver_payload(quiver, relations)
    text = print_quiver_file(QuiverFile(quiver, relations))
    _emit(args, data, text)


# -- parser --------------------------------------------------------------------


# (flag, add_argument keywords) for the options that several subcommands share
_IN = ("--in", dict(dest="infile", required=True, metavar="FILE", help="input file"))
_FORMAT = ("--format", dict(choices=("json", "text"), default="json"))
_CUTOFF = ("--cutoff", dict(type=int, required=True, help="largest path degree to compute"))
_BOUNDS = (("--cycle-bound", dict(type=int, default=None, help="max cycle length "
                                  "(default: total interior dimension squared)")),
           ("--path-bound", dict(type=int, default=None, help="max framing-to-framing "
                                 "path length (default: cycle bound + 2)")))
_MAX_STEPS = ("--max-steps", dict(type=int, default=50_000,
                                  help="pair-reduction budget for the Groebner run"))
_MODULE = ("--module", dict(required=True, metavar="FILE", help="module JSON document"))

# every subcommand once: its handler, its help text and its options in order
_COMMANDS = {
    "basis": (_cmd_basis, "graded dimensions of the quotient algebra",
              (_IN, _FORMAT, _CUTOFF)),
    "cocenter": (_cmd_cocenter, "graded dimensions of the cocenter", (_IN, _FORMAT, _CUTOFF)),
    "corner": (_cmd_corner, "minimized corner-algebra generators", (_IN, _FORMAT, _CUTOFF)),
    "corner-present": (_cmd_corner_present, "weighted quiver presentation of the corner",
                       (_IN, _FORMAT, _CUTOFF)),
    "bimodule-gens": (_cmd_bimodule_gens, "generators of the source-in-H column module",
                      (_IN, _FORMAT, _CUTOFF)),
    "invariants": (_cmd_invariants, "trace and framing-entry invariants",
                   (_IN, _FORMAT, *_BOUNDS)),
    "rep-ideal": (_cmd_rep_ideal, "defining ideal of the representation scheme",
                  (_IN, _FORMAT)),
    "groebner": (_cmd_groebner, "Groebner basis of an ideal JSON document",
                 (_IN, _FORMAT, _MAX_STEPS)),
    "nilwitness": (_cmd_nilwitness, "search for a nilpotent element of the coordinate ring", (
        _IN, _FORMAT, _MAX_STEPS,
        ("--max-deg", dict(type=int, required=True, help="largest candidate degree")),
        ("--max-pow", dict(type=int, required=True, help="largest power to test")),
        ("--seed", dict(type=int, default=0)),
        ("--trials", dict(type=int, default=200,
                          help="random combinations tried in the last search phase")),
        ("--max-ops", dict(type=int, default=None,
                           help="abort after this many reduction steps")))),
    "check-module": (_cmd_check_module, "check a module against the file's relations",
                     (_IN, _FORMAT, _MODULE)),
    "induce": (_cmd_induce, "induce an ambient module from a corner module",
               (_IN, _FORMAT, _CUTOFF, _MODULE)),
    "fingerprint": (_cmd_fingerprint, "invariant values of a module",
                    (_IN, _FORMAT, *_BOUNDS, _MODULE)),
    "stability": (_cmd_stability, "is the module generated by the framing vector?",
                  (_IN, _FORMAT, _MODULE)),
    "delta": (_cmd_delta, "primitive imaginary root of an affine type", (
        _FORMAT,
        ("--type", dict(required=True, choices=("A", "D", "E"), help="affine Dynkin family")),
        ("--rank", dict(required=True, type=int)))),
    "astar": (_cmd_astar, "relations extended by the arrows into the special vertex",
              (_IN, _FORMAT)),
    "acircledast": (_cmd_acircledast,
                    "surgered quiver: framing removed, special vertex re-framed",
                    (_IN, _FORMAT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverlab",
        description="exact computations with quivers, relations, and their "
                    "representation schemes")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(func=func)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()   # a closed pipe fails here, not at exit
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # as in Python's SIGPIPE recipe: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, VerificationError, KeyError, OSError,
            json.JSONDecodeError, OverflowError, MemoryError) as exc:
        # a huge --cutoff overflows or exhausts memory while sizing its output
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
