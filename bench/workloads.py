"""The benchmark's four workloads: seeded inputs, one timed pass, checks.

Each workload is a pair of functions.  ``setup(seed, workdir)`` builds or
writes the inputs and returns them; ``run_pass(ctx, rec)`` performs one pass
as a sequence of ``rec.op`` calls, each timed on its own and checked after
the clock stops.  Inputs that are random come only from ``seed``.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import os
import pstats
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import quiverlab.cli as qcli
from quiverlab.algebra import (cocenter, framed_affine_preprojective,
                               graded_basis, preprojective_relations)
from quiverlab.corner import corner_generators, corner_presentation
from quiverlab.linalg import Mat
from quiverlab.modules import (ModuleRep, check_relations, direct_sum,
                               invariant_fingerprint, module_from_json,
                               random_extension, restrict_corner, zero_module)
from quiverlab.polynomials import (GroebnerBasis, buchberger,
                                   nilpotent_witness_search,
                                   standard_monomials)
from quiverlab.quiverfile import QuiverFile, print_quiver_file
from quiverlab.quivers import build_doubled_dynkin, delta_k
from quiverlab.repscheme import (RepCoordinates, add_pullback,
                                 invariant_generators, rep_ideal)
from recorder import Failure, Recorder, run_child

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
FIXTURES = ROOT / "fixtures"

# Outputs that depend on the seed are compared with golden text only at the
# seed the goldens were recorded with; at every seed they are re-verified.
GOLDENS = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))
GOLDEN_SEED = GOLDENS["seed"]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


# -- cocenter ------------------------------------------------------------------

# (label, Dynkin type, rank, Coxeter number h).  The algebra's top degree is
# h - 2 and its total dimension n*h*(h+1)/6 (sum over the positive roots).
COCENTER_TYPES = [("A8", "A", 8, 9), ("D8", "D", 8, 14),
                  ("E6", "E", 6, 12), ("E7", "E", 7, 18)]


def setup_cocenter(seed: int, workdir: str):
    out = []
    for label, kind, rank, h in COCENTER_TYPES:
        quiver = build_doubled_dynkin(kind, rank)
        out.append((label, rank, h, quiver, preprojective_relations(quiver)))
    return out


def pass_cocenter(ctx, rec: Recorder) -> None:
    for label, rank, h, quiver, rels in ctx:
        def compute(quiver=quiver, rels=rels, h=h, label=label):
            with rec.span("algebra.graded_basis_s"):
                basis = graded_basis(quiver, rels, h)   # top degree + 2
            with rec.span("algebra.cocenter_s"), \
                    rec.span(f"algebra.cocenter_s.{label}"):
                coc = cocenter(basis)
            return basis, coc

        def check(result, rank=rank, h=h):
            basis, coc = result
            dims = basis.dimensions
            expect(basis.finite_dimensional and basis.top_degree == h - 2,
                   f"top degree {basis.top_degree}, expected {h - 2}")
            expect(sum(dims) == rank * h * (h + 1) // 6,
                   f"total dimension {sum(dims)} misses the positive-root count")
            expect(coc.degree_dims[0] == rank
                   and not any(coc.degree_dims[1:]) and not coc.truncated,
                   f"cocenter dims {coc.degree_dims} not concentrated in degree 0")
            top = len(coc.degree_dims) - 1
            rec.count("algebra.basis_dim", sum(dims))
            rec.count("algebra.commutator_pairs", sum(
                dims[p] * dims[d - p] for d in range(top + 1) for p in range(d + 1)))
            rec.count("algebra.commutator_rank", sum(
                dims[d] - coc.degree_dims[d] for d in range(top + 1)))

        rec.op(label, compute, check)


# -- witness -------------------------------------------------------------------


def setup_witness(seed: int, workdir: str):
    quiver = build_doubled_dynkin("D", 4)
    return SimpleNamespace(seed=seed, quiver=quiver,
                           rels=preprojective_relations(quiver),
                           dims=delta_k("D", 4))


def counting_basis(gb: GroebnerBasis, rec: Recorder) -> GroebnerBasis:
    """The same basis, counting and timing every normal form it computes."""

    class CountingBasis(GroebnerBasis):
        def normal_form(self, f):
            rec.count("polynomials.nf_calls")
            with rec.span("polynomials.nf_s"):
                return super().normal_form(f)

    return CountingBasis(gb.ring, gb.polys)


def pass_witness(ctx, rec: Recorder) -> None:
    def ideal():
        with rec.span("repscheme.rep_ideal_s"):
            coords = RepCoordinates(ctx.quiver, ctx.dims)
            return rep_ideal(coords, ctx.rels).nonzero_generators()

    def check_ideal(gens):
        expect(len(gens) == 7, f"{len(gens)} nonzero ideal generators, expected 7")
        rec.count("repscheme.ideal_gens", len(gens))

    gens = rec.op("rep_ideal", ideal, check_ideal)

    def groebner():
        with rec.span("polynomials.buchberger_s"):
            return buchberger(gens)

    def check_groebner(gb):
        expect(len(gb) == 22, f"{len(gb)} basis elements, expected 22")
        expect(all(gb.ideal_member(g)[0] for g in gens),
               "a generator does not reduce to zero")
        rec.count("polynomials.gb_size", len(gb))

    gb = rec.op("buchberger", groebner, check_groebner)
    probe_gb = counting_basis(gb, rec) if rec.tracing and gb is not None else gb

    def miss():
        with rec.span("polynomials.witness_miss_s"):
            return nilpotent_witness_search(probe_gb, 3, 4, seed=ctx.seed)

    def check_miss(witness):
        expect(witness is None, "found a witness at (3, 4)")
        if rec.tracing:
            rec.count("polynomials.standard_monomials",
                      len(standard_monomials(gb, 3)))

    rec.op("witness_3_4", miss, check_miss)

    def hit():
        with rec.span("polynomials.witness_hit_s"):
            return nilpotent_witness_search(probe_gb, 5, 6, seed=ctx.seed)

    def check_hit(witness):
        expect(witness is not None, "no witness at (5, 6)")
        verify_witness(gb, witness.element, witness.power, 5, 6)
        if ctx.seed == GOLDEN_SEED:
            want = GOLDENS["witness"]
            expect([witness.element.text(), witness.power] == want,
                   f"witness differs from the recorded {want}")
        if rec.tracing:
            rec.count("polynomials.standard_monomials",
                      len(standard_monomials(gb, 5)))

    rec.op("witness_5_6", hit, check_hit)


def verify_witness(gb, f, k: int, max_deg: int, max_pow: int) -> None:
    """f lies outside the ideal and f^k inside it, by fresh expansion."""
    expect(0 < f.degree <= max_deg and 2 <= k <= max_pow,
           f"witness degree {f.degree} or power {k} out of range")
    expect(not gb.ideal_member(f)[0], "witness lies in the ideal")
    power = f
    for _ in range(k - 1):
        power = power * f
    expect(gb.ideal_member(power)[0], "witness power is not in the ideal")


# -- pullback ------------------------------------------------------------------

D4_OUTER = ("1", "3", "4")   # the legs of D4, permuted by its automorphisms


def _criterion07_shapes() -> list[tuple[dict, dict]]:
    """The dimension vectors criterion 07 draws, one pair per run."""
    vertices = ("1", "2", "3", "4")
    shapes = []
    for i in range(20):
        rng = random.Random(911 + i)
        pair = []
        for bound in (2, 1):
            dims = {v: rng.randint(0, bound) for v in vertices}
            if not any(dims.values()):
                dims[rng.choice(vertices)] = 1
            pair.append(dims)
        shapes.append(tuple(pair))
    return shapes


def _rand_mat(rng, rows: int, cols: int, bound: int = 2) -> Mat:
    return Mat.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def setup_pullback(seed: int, workdir: str):
    """Criterion 07 and 08 inputs.

    Shapes (dimension vectors) follow a fixed schedule so every seed asks
    for the same amount of work; the seed draws everything else: a D4
    automorphism relabelling each criterion-07 pair, every matrix entry of
    the criterion-08 blocks, and the extension data.
    """
    rng = random.Random(seed)
    d4 = build_doubled_dynkin("D", 4)
    add_cases = []
    for v_dims, w_dims in _criterion07_shapes():
        legs = dict(zip(D4_OUTER, rng.sample(D4_OUTER, 3)))
        v = {legs.get(k, k): n for k, n in v_dims.items()}
        w = {legs.get(k, k): n for k, n in w_dims.items()}
        add_cases.append((zero_module(d4, v), zero_module(d4, w)))

    a2 = build_doubled_dynkin("A", 2)
    ext_cases = []
    for shape in range(16):
        ds = {"1": 1 + (shape & 1), "2": 1 + (shape >> 1 & 1)}
        dq = {"1": 1 + (shape >> 2 & 1), "2": 1 + (shape >> 3 & 1)}
        sub = ModuleRep(a2, ds, {"a": Mat.zero(ds["2"], ds["1"]),
                                 "a*": _rand_mat(rng, ds["1"], ds["2"])})
        quot = ModuleRep(a2, dq, {"a": _rand_mat(rng, dq["2"], dq["1"]),
                                  "a*": Mat.zero(dq["1"], dq["2"])})
        ext_cases.append((f"ext_a2_{shape}", sub, quot, 6, rng.getrandbits(32)))

    framed, framed_rels = framed_affine_preprojective("A", 1)

    def framed_block(n: int) -> ModuleRep:
        # a = b = identity forces b* = -a*; traces stay honestly nonzero
        m = _rand_mat(rng, n, n)
        return ModuleRep(framed, {"∞": 1, "0": n, "1": n}, {
            "a": Mat.identity(n), "b": Mat.identity(n),
            "a*": m, "b*": m.scale(-1), "ι": _rand_mat(rng, n, 1)})

    for shape in range(8):
        sub, quot = framed_block(1 + (shape & 1)), framed_block(1 + (shape >> 1 & 1))
        ext_cases.append((f"ext_framed_{shape}", sub, quot, 4, rng.getrandbits(32)))

    return SimpleNamespace(
        d4_coords=RepCoordinates(d4, delta_k("D", 4)),
        d4_rels=preprojective_relations(d4),
        add_cases=add_cases, ext_cases=ext_cases,
        rels={a2: preprojective_relations(a2), framed: framed_rels})


def pass_pullback(ctx, rec: Recorder) -> None:
    coords, rels = ctx.d4_coords, ctx.d4_rels
    for i, (v_k, w_k) in enumerate(ctx.add_cases):
        def stacked(v_k=v_k, w_k=w_k):
            both = direct_sum(v_k, w_k)
            with rec.span("repscheme.add_pullback_s"):
                big1, hom1 = add_pullback(coords, v_k.dims, v_k.matrices, rels)
                big2, hom2 = add_pullback(big1, w_k.dims, w_k.matrices, rels)
                big12, hom12 = add_pullback(coords, both.dims, both.matrices, rels)
            with rec.span("repscheme.invariant_generators_s"):
                gens = invariant_generators(big2, cycle_bound=4, path_bound=0)
            hom1, hom2, hom12 = (
                rec.timed(h, "polynomials.substitute_s", "polynomials.substitutions")
                for h in (hom1, hom2, hom12))
            pairs = [(hom1(hom2(g.polynomial)), hom12(g.polynomial)) for g in gens]
            return big2.ring == big12.ring, pairs

        def check_stacked(result):
            same_ring, pairs = result
            expect(same_ring, "stacked and direct-sum pullbacks land in different rings")
            expect(bool(pairs), "no invariant generators")
            expect(all(a == b for a, b in pairs),
                   "stacked pullback differs from the direct-sum pullback")
            rec.count("repscheme.invariants", len(pairs))

        rec.op(f"add_{i}", stacked, check_stacked)

    for name, sub, quot, cycle_bound, ext_seed in ctx.ext_cases:
        quiver = sub.quiver

        def extension(sub=sub, quot=quot, cycle_bound=cycle_bound,
                      ext_seed=ext_seed, quiver=quiver):
            rng = random.Random(ext_seed)   # the same extension on every pass
            with rec.span("modules.random_extension_s"):
                ext = random_extension(sub, quot, ctx.rels[quiver], rng)
            flat = direct_sum(sub, quot)
            with rec.span("repscheme.invariant_generators_s"):
                gens = invariant_generators(RepCoordinates(quiver, ext.dims),
                                            cycle_bound=cycle_bound, path_bound=0)
            with rec.span("modules.fingerprint_s"):
                prints = (invariant_fingerprint(ext, gens),
                          invariant_fingerprint(flat, gens))
            return ext, flat, gens, prints

        def check_extension(result, quiver=quiver):
            ext, flat, gens, (got, want) = result
            expect(ext.dims == flat.dims, "extension changed the dimension vector")
            expect(check_relations(ext, ctx.rels[quiver])[0],
                   "extension violates the relations")
            expect(got == want, "fingerprint sees the extension data")
            rec.count("repscheme.invariants", len(gens))

        rec.op(name, extension, check_extension)


# -- cli -----------------------------------------------------------------------

# Malformed quiver files: each must exit 1 with `error:` and no traceback.
MALFORMED = {
    "malformed_keyword": "vertex 0\nvertx 1\n",
    "malformed_vertex": "vertex 0\narrow a: 0 -> 9\n",
    "malformed_relation": "vertex 0\nvertex 1\narrow a: 0 -> 1\nrelation z.a\n",
    "malformed_arrow_sign": "vertex 0\nvertex 1\narrow a:-0 -> 1\n",
}
KNOWN_DEFECTS = {
    "malformed_arrow_sign": "quiverfile.py raises StopIteration with a "
                            "traceback for `arrow a:-0 -> 1`",
}


def setup_cli(seed: int, workdir: str):
    work = Path(workdir)
    quiver, rels = framed_affine_preprojective("E", 8)
    (work / "framed_e8.quiver").write_text(
        print_quiver_file(QuiverFile(quiver, rels)), encoding="utf-8")

    d4 = build_doubled_dynkin("D", 4)
    coords = RepCoordinates(d4, delta_k("D", 4))
    ideal = rep_ideal(coords, preprojective_relations(d4))
    (work / "d4_ideal.json").write_text(json.dumps(
        {"variables": list(coords.ring.variables), "order": coords.ring.order,
         "generators": [g.text() for g in ideal.generators]}), encoding="utf-8")

    # a V_H on the framed A~1 corner presentation (criterion 11's family):
    # g3 = -t^2/u makes it satisfy the truncated corner relations
    rng = random.Random(seed)
    t = Fraction(rng.randint(-3, 3))
    u = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    v_h = {"dimension": {"∞": 1, "0": 1},
           "arrows": {"ι": [[str(rng.choice([1, 2, 3]))]], "g1": [[str(t)]],
                      "g2": [[str(u)]], "g3": [[str(-t * t / u)]]}}
    (work / "v_h.json").write_text(json.dumps(v_h, ensure_ascii=False),
                                   encoding="utf-8")

    for name, text in MALFORMED.items():
        (work / f"{name}.quiver").write_text(text, encoding="utf-8")
    return SimpleNamespace(seed=seed, work=work, v_h=v_h, oracles={}, hashes={})


def cli_calls(ctx) -> list[tuple[str, list[str]]]:
    """(operation name, argv) for every subcommand, then the malformed files."""
    fx, w = str(FIXTURES), str(ctx.work)
    a1f = f"{fx}/affine_a1_framed.quiver"
    d4f = f"{fx}/affine_d4_framed.quiver"
    gen1 = f"{fx}/modules/framed_a1_generated_1.json"
    calls = [
        ("basis", ["basis", "--in", f"{w}/framed_e8.quiver", "--cutoff", "60"]),
        ("cocenter", ["cocenter", "--in", f"{fx}/d4.quiver", "--cutoff", "6"]),
        ("corner", ["corner", "--in", d4f, "--cutoff", "8"]),
        ("corner-present", ["corner-present", "--in", a1f, "--cutoff", "14"]),
        ("bimodule-gens",
         ["bimodule-gens", "--in", f"{w}/framed_e8.quiver", "--cutoff", "60"]),
        # explicit bounds: the default cycle bound runs without a budget
        ("invariants", ["invariants", "--in", f"{fx}/d4.quiver",
                        "--cycle-bound", "6"]),
        ("rep-ideal", ["rep-ideal", "--in", f"{fx}/d4.quiver"]),
        ("groebner", ["groebner", "--in", f"{w}/d4_ideal.json"]),
        ("nilwitness", ["nilwitness", "--in", f"{w}/d4_ideal.json",
                        "--max-deg", "3", "--max-pow", "4",
                        "--seed", str(ctx.seed)]),
        ("check-module", ["check-module", "--in", a1f, "--module", gen1]),
        ("induce", ["induce", "--in", a1f, "--cutoff", "8",
                    "--module", f"{w}/v_h.json"]),
        ("fingerprint", ["fingerprint", "--in", a1f, "--module", gen1,
                         "--cycle-bound", "4", "--path-bound", "4"]),
        ("stability", ["stability", "--in", a1f, "--module",
                       f"{fx}/modules/framed_a1_ungenerated_2.json"]),
        ("delta", ["delta", "--type", "E", "--rank", "8"]),
        ("astar", ["astar", "--in", a1f]),
        ("acircledast", ["acircledast", "--in", d4f]),
    ]
    calls += [(name, ["basis", "--in", f"{w}/{name}.quiver", "--cutoff", "2"])
              for name in MALFORMED]
    return calls


SEEDED_OUTPUTS = {"induce", "nilwitness"}


def check_cli(ctx, name: str, result) -> None:
    code, out, err = result
    ctx.hashes[name] = hashlib.sha256(out).hexdigest()
    if name in MALFORMED:
        expect(code == 1 and err.startswith(b"error:")
               and b"Traceback" not in err and not out,
               f"exit {code}, stderr {err[-160:]!r}")
        return
    expect(code == 0, f"exit {code}, stderr {err[-160:]!r}")
    if name not in SEEDED_OUTPUTS or ctx.seed == GOLDEN_SEED:
        want = GOLDENS["cli_sha256"].get(name)
        expect(ctx.hashes[name] == want, f"stdout sha256 {ctx.hashes[name]} != {want}")
    if name == "induce":
        verify_induced(ctx, json.loads(out))
    elif name == "nilwitness":
        found = json.loads(out)["witness"]
        expect(found is None, f"found a witness at (3, 4): {found}")


def verify_induced(ctx, data: dict) -> None:
    """The induced module satisfies the ambient relations and restricts back
    to V_H up to invariants (criterion 11's round trip)."""
    if "pres" not in ctx.oracles:
        quiver, rels = framed_affine_preprojective("A", 1)
        corner = corner_generators(graded_basis(quiver, rels, 8), verify_cutoff=8)
        ctx.oracles.update(quiver=quiver, rels=rels,
                           pres=corner_presentation(corner, 8))
    quiver, rels, pres = ctx.oracles["quiver"], ctx.oracles["rels"], ctx.oracles["pres"]
    induced = module_from_json(quiver, data)
    v_h = module_from_json(pres.quiver, ctx.v_h)
    expect(check_relations(induced, rels)[0], "induced module violates the relations")
    expect(induced.dims.restrict(quiver.h_vertices) == v_h.dims,
           "induced module has the wrong H dimensions")
    invs = invariant_generators(RepCoordinates(pres.quiver, v_h.dims))
    expect(invariant_fingerprint(restrict_corner(induced, pres), invs)
           == invariant_fingerprint(v_h, invs),
           "corner restriction does not match V_H")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def pass_cli(ctx, rec: Recorder) -> None:
    """One child process per call, started one at a time."""
    env = cli_env()
    ctx.hashes = {}
    for name, argv in cli_calls(ctx):
        rec.op(name,
               lambda argv=argv, name=name: run_child(
                   rec, [sys.executable, "-m", "quiverlab.cli", *argv], env,
                   str(ctx.work), name),
               lambda result, name=name: check_cli(ctx, name, result))


def run_main(argv: list[str]) -> tuple[int, bytes, bytes]:
    """cli.main in this process, with the exit status and streams a child
    process would give (an uncaught exception prints a traceback, exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qcli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # mirrors the interpreter's top-level handler
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


# Library entry points the CLI handlers call, with the span each one feeds.
CLI_SPANS = {
    "parse_quiver_file": "quiverfile.parse_s",
    "graded_basis": "algebra.graded_basis_s",
    "cocenter": "algebra.cocenter_s",
    "corner_generators": "corner.corner_generators_s",
    "bimodule_generators": "corner.bimodule_generators_s",
    "corner_presentation": "corner.corner_presentation_s",
    "induce_module": "modules.induce_module_s",
    "generated_by_framing": "modules.generated_by_framing_s",
    "invariant_generators": "repscheme.invariant_generators_s",
    "invariant_fingerprint": "modules.fingerprint_s",
    "rep_ideal": "repscheme.rep_ideal_s",
    "buchberger": "polynomials.buchberger_s",
    "nilpotent_witness_search": "polynomials.witness_miss_s",
}


def pass_cli_inprocess(ctx, rec: Recorder) -> None:
    """The same calls through ``cli.main`` in this process.  When tracing,
    the library functions the handlers call are wrapped in spans."""
    ctx.hashes = {}
    saved = {name: getattr(qcli, name) for name in CLI_SPANS}
    try:
        if rec.tracing:
            for name, span in CLI_SPANS.items():
                setattr(qcli, name, rec.timed(saved[name], span))
        for name, argv in cli_calls(ctx):
            with rec.span(f"cli.main_s.{name}"):
                rec.op(name, lambda argv=argv: run_main(argv),
                       lambda result, name=name: check_cli(ctx, name, result))
    finally:
        for name, fn in saved.items():
            setattr(qcli, name, fn)


WORKLOADS = {
    "cocenter": (setup_cocenter, pass_cocenter),
    "witness": (setup_witness, pass_witness),
    "pullback": (setup_pullback, pass_pullback),
    "cli": (setup_cli, pass_cli),
}


def profile_pass(fn) -> dict:
    """Run fn under cProfile: Fraction constructions and per-module self time."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    stats = pstats.Stats(prof).stats
    total = sum(tt for (_, _, tt, _, _) in stats.values()) or 1.0
    shares: dict[str, float] = {}
    new_calls = 0
    for (filename, _, func), (_, ncalls, tt, _, _) in stats.items():
        path = Path(filename)
        if path.name == "fractions.py":
            module = "fractions"
            if func == "__new__":
                new_calls += ncalls
        elif path.parent.name == "quiverlab":
            module = path.stem
        else:
            continue
        shares[module] = shares.get(module, 0.0) + tt / total
    return {"new_calls": new_calls, "shares": shares}
