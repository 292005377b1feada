"""Input checks across the library: each malformed call raises ValueError
with its own message, before any computation starts."""

import re
from fractions import Fraction

import pytest

from quiverlab.algebra import (AlgebraElement, RelationSet, framed_affine_preprojective,
                               graded_basis, star_pairing)
from quiverlab.corner import CornerPresentation
from quiverlab.linalg import Mat
from quiverlab.modules import module_from_json
from quiverlab.polynomials import PolyRing, buchberger
from quiverlab.quivers import (Arrow, DimensionVector, Path, Quiver, StabilityVector,
                               evaluate_character, frame)
from quiverlab.repscheme import build_astar, direct_sum, restrict_corner, zero_module

# one arrow 0 -> 1, and one loop at 0
LINE = Quiver(["0", "1"], [Arrow("a", "0", "1")])
LOOP = Quiver(["0"], [Arrow("x", "0", "0")])


def _x(*arrows):
    return Path(LOOP, "0", arrows)


def _framed_a1(drop=(), add=(), tags=None):
    """Framed affine A1 with arrows dropped or added and tags overridden."""
    q, _ = framed_affine_preprojective("A", 1)
    arrows = [a for a in q.arrows if a.name not in drop] + list(add)
    return Quiver(q.vertices, arrows, {**q.partition, **(tags or {})})


def _astar(quiver):
    return build_astar(quiver, RelationSet(quiver, ()))


def _loop_basis():
    return graded_basis(LOOP, RelationSet(LOOP, ()), 2)


def _foreign_presentation():
    return CornerPresentation(LOOP, {}, RelationSet(LOOP, ()),
                              {"x": _x("x")}, 1, "truncated")


def _module(arrows):
    return module_from_json(LINE, {"dimension": {"0": 1, "1": 1}, "arrows": arrows})


CHECKS = [
    # RelationSet
    ("relation-zero", lambda: RelationSet(LINE, [AlgebraElement.zero(LINE)]),
     "zero relation"),
    ("relation-quiver", lambda: RelationSet(LINE, [AlgebraElement.from_path(_x("x"))]),
     "relation over a different quiver"),
    ("relation-inhomogeneous",
     lambda: RelationSet(LOOP, [AlgebraElement(LOOP, {_x("x"): 1, _x("x", "x"): 1})]),
     "inhomogeneous relation"),
    ("relation-length-0", lambda: RelationSet(LOOP, [AlgebraElement.idempotent(LOOP, "0")]),
     "relations must have positive length"),
    # star_pairing
    ("star-no-partner", lambda: star_pairing(LINE), "unpaired arrow 'a'"),
    ("star-no-base", lambda: star_pairing(Quiver(["0", "1"], [Arrow("a*", "1", "0")])),
     "unpaired arrow 'a*'"),
    ("star-not-reverse",
     lambda: star_pairing(Quiver(["0", "1"], [Arrow("a", "0", "1"), Arrow("a*", "0", "1")])),
     "arrows 'a' and 'a*' are not mutually reverse"),
    # Quiver
    ("quiver-duplicate-arrow",
     lambda: Quiver(["0"], [Arrow("x", "0", "0"), Arrow("x", "0", "0")]),
     "duplicate arrow name"),
    ("quiver-endpoint", lambda: Quiver(["0"], [Arrow("x", "0", "1")]),
     "arrow x has an endpoint outside the vertex set"),
    ("quiver-tag", lambda: Quiver(["0"], [], {"0": "Q"}), "invalid tag 'Q' for vertex 0"),
    ("quiver-partition", lambda: Quiver(["0"], [], {"0": "K", "9": "J"}),
     "partition mentions unknown vertices"),
    # frame
    ("frame-target", lambda: frame(LINE, "7"), "unknown vertex '7'"),
    ("frame-twice", lambda: frame(frame(LINE, "0"), "1"),
     "quiver already contains the framing vertex"),
    ("frame-iota", lambda: frame(Quiver(["0"], [Arrow("ι", "0", "0")]), "0"),
     "quiver already contains the framing arrow"),
    # build_astar's framed-affine checks
    ("astar-j", lambda: _astar(_framed_a1(tags={"0": "K", "1": "J"})),
     "expected exactly vertex 0 tagged J"),
    ("astar-no-iota", lambda: _astar(_framed_a1(drop=("ι",))), "missing the framing arrow"),
    ("astar-iota-reversed",
     lambda: _astar(_framed_a1(drop=("ι",), add=(Arrow("ι", "0", "∞"),))),
     "the framing arrow must run from the framing vertex to 0"),
    ("astar-touches-infinity", lambda: _astar(_framed_a1(add=(Arrow("π", "1", "∞"),))),
     "no arrow besides the framing arrow may touch the framing vertex"),
    # Mat and kernels
    ("mat-from-no-rows", lambda: Mat.from_rows([]), "from_rows needs at least one row"),
    ("mat-sum", lambda: Mat.zero(1, 2) + Mat.zero(2, 1), "shape mismatch in matrix sum"),
    ("mat-product", lambda: Mat.zero(1, 2) * Mat.zero(1, 2),
     "shape mismatch in matrix product"),
    ("mat-trace", lambda: Mat.zero(1, 2).trace(), "trace of a non-square matrix"),
    ("mat-inverse", lambda: Mat.zero(1, 2).inverse(), "inverse of a non-square matrix"),
    # calls across quivers or vertex sets
    ("basis-reduce", lambda: _loop_basis().reduce(AlgebraElement.idempotent(LINE, "0")),
     "element over a different quiver"),
    ("basis-normal-form",
     lambda: _loop_basis().normal_form(AlgebraElement.idempotent(LINE, "0")),
     "element over a different quiver"),
    # one loop: keys are 1-bit fields, so index 2 would read as another key
    ("basis-extend-key", lambda: _loop_basis().extend({(0, 2): 1}, ()),
     "path key (0, 2) has an index outside the quiver"),
    ("direct-sum",
     lambda: direct_sum(zero_module(LINE, {"0": 1, "1": 1}), zero_module(LOOP, {"0": 1})),
     "summands live over different quivers"),
    ("restrict-corner",
     lambda: restrict_corner(zero_module(LINE, {"0": 1, "1": 1}), _foreign_presentation()),
     "presentation comes from a different quiver"),
    ("path-product", lambda: Path.idempotent(LINE, "0") * Path.idempotent(LOOP, "0"),
     "paths live in different quivers"),
    ("dominates", lambda: DimensionVector({"0": 1}).dominates(DimensionVector({"1": 1})),
     "dimension vectors over different vertex sets"),
    ("character-support", lambda: evaluate_character(StabilityVector({"0": 1}), {"1": 2}),
     "determinants must be given exactly on the support of zeta"),
    ("character-zero",
     lambda: evaluate_character(StabilityVector({"0": 1}), {"0": Fraction(0)}),
     "zero determinant at vertex 0"),
    # polynomials
    ("monomial-length", lambda: PolyRing(["x", "y"]).monomial((1,)), "bad exponent tuple"),
    ("lead-of-zero", lambda: PolyRing(["x"]).zero().lead_exps(),
     "zero polynomial has no leading term"),
    ("normal-form-ring",
     lambda: buchberger([PolyRing(["x"]).parse("x")]).normal_form(PolyRing(["u"]).parse("u")),
     "polynomial from a different ring"),
    # module documents
    ("module-arrows-list", lambda: _module([]), "'arrows' must map arrow names to matrices"),
    ("module-not-rows", lambda: _module({"a": [1]}), "matrix for 'a' must be a list of rows"),
    ("module-zero-denominator", lambda: _module({"a": [["1/0"]]}),
     "zero denominator in matrix entry '1/0'"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
