import pathlib
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from quiverlab.algebra import (AlgebraElement, RelationSet, framed_affine_preprojective,
                               graded_basis, preprojective_relations)
from quiverlab.corner import bimodule_generators, corner_generators, corner_presentation
from quiverlab.linalg import SpanBuilder
from quiverlab.polynomials import buchberger
from quiverlab.quivers import Arrow, Path, Quiver, build_doubled_dynkin, delta_k
from quiverlab.repscheme import RepCoordinates, rep_ideal

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def framing_loop_quiver() -> Quiver:
    """A framing vertex with a way back and a loop: framing entries of every length."""
    return Quiver(["∞", "0"], [Arrow("ι", "∞", "0"), Arrow("π", "0", "∞"),
                               Arrow("x", "0", "0")], {"∞": "F", "0": "K"})


def two_loop_quiver() -> Quiver:
    """One gauged vertex with two loops: cycles that repeat arrows in any order."""
    return Quiver(["0"], [Arrow("x", "0", "0"), Arrow("y", "0", "0")], {"0": "K"})


@pytest.fixture
def record_spans(monkeypatch):
    """``record(module)`` swaps the module's SpanBuilder for one that keeps
    every add's row, as handed in, and answer, and returns the list of spans
    it makes."""
    def record(module: str) -> list:
        spans = []

        class Recording(SpanBuilder):
            def __init__(self):
                super().__init__()
                self.rows, self.answers = [], []
                spans.append(self)

            def add(self, row):
                self.rows.append(dict(row))
                self.answers.append(super().add(row))
                return self.answers[-1]

        monkeypatch.setattr(f"quiverlab.{module}.SpanBuilder", Recording)
        return spans
    return record


def random_quotient(rng):
    """Seeded random quiver (loops and multiple arrows allowed) with one to
    three random homogeneous relations of lengths 1 to 3."""
    vertices = [str(i) for i in range(1, rng.randint(1, 3) + 1)]
    arrows = [Arrow(f"x{i}", rng.choice(vertices), rng.choice(vertices))
              for i in range(rng.randint(1, 4))]
    q = Quiver(vertices, arrows)
    return q, random_relations(rng, q, vertices)


def random_relations(rng, q, ends):
    """One to three random homogeneous relations of lengths 1 to 3 over q,
    each between two vertices drawn from ``ends``."""
    rels = []
    for _ in range(rng.randint(1, 3)):
        source, target = rng.choice(ends), rng.choice(ends)
        words = [Path.idempotent(q, source)]
        for _ in range(rng.randint(1, 3)):
            words = [p.extend(a) for p in words for a in q.arrows_from(p.target)]
        words = [p for p in words if p.target == target]
        if words:
            picked = rng.sample(words, min(len(words), rng.randint(1, 3)))
            rels.append(AlgebraElement(
                q, {p: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for p in picked}))
    return RelationSet(q, rels)


@pytest.fixture(scope="session")
def framed_a1():
    quiver, rels = framed_affine_preprojective("A", 1)
    basis = graded_basis(quiver, rels, 12)
    return quiver, rels, basis


@pytest.fixture(scope="session")
def framed_a1_corner(framed_a1):
    _, _, basis = framed_a1
    corner = corner_generators(basis, verify_cutoff=8)
    bimod = bimodule_generators(corner, verify_cutoff=8)
    pres = corner_presentation(corner, cutoff=8)
    return corner, bimod, pres


@pytest.fixture(scope="session")
def framed_d4():
    quiver, rels = framed_affine_preprojective("D", 4)
    basis = graded_basis(quiver, rels, 12)
    return quiver, rels, basis


@pytest.fixture(scope="session")
def framed_d4_corner(framed_d4):
    _, _, basis = framed_d4
    corner = corner_generators(basis, verify_cutoff=12)
    bimod = bimodule_generators(corner, verify_cutoff=12)
    pres = corner_presentation(corner, cutoff=12)
    return corner, bimod, pres


@pytest.fixture(scope="session")
def d4_rep_ideal():
    quiver = build_doubled_dynkin("D", 4)
    coords = RepCoordinates(quiver, delta_k("D", 4))
    ideal = rep_ideal(coords, preprojective_relations(quiver))
    return coords, ideal


@pytest.fixture(scope="session")
def d4_groebner(d4_rep_ideal):
    _, ideal = d4_rep_ideal
    return buchberger([g for g in ideal.generators if g.terms])


@pytest.fixture(scope="session")
def a3_groebner():
    quiver = build_doubled_dynkin("A", 3)
    ideal = rep_ideal(RepCoordinates(quiver, delta_k("A", 3)),
                      preprojective_relations(quiver))
    return buchberger([g for g in ideal.generators if g.terms])
