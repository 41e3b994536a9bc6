import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from folnerlab.scalars import EXACT

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "schemas"


@cache
def schema_registry():
    """Every ``schemas/*.schema.json`` keyed by its ``$id``, so that the
    cross-file ``$ref``s between them resolve."""
    from referencing import Registry, Resource

    docs = [json.loads(path.read_text())
            for path in sorted(SCHEMA_DIR.glob("*.schema.json"))]
    return Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs)


def schema_validator(name: str):
    """A Draft 2020-12 validator for ``schemas/<name>.schema.json``, after
    checking the schema itself against the 2020-12 metaschema."""
    import jsonschema

    schema = schema_registry()[f"folnerlab/{name}.schema.json"].contents
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema, registry=schema_registry())


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def label_checks(monkeypatch):
    """The labels passed to FusionRing.check_label from here on."""
    from folnerlab.fusion import FusionRing

    calls = []
    check = FusionRing.check_label

    def counting(ring, u):
        calls.append(u)
        return check(ring, u)

    monkeypatch.setattr(FusionRing, "check_label", counting)
    return calls


@pytest.fixture
def normalize_calls(monkeypatch):
    """The (ring, label) pairs passed to any ring's normalize from here on:
    every FusionRing class that defines normalize is wrapped."""
    from folnerlab.fusion import FusionRing

    calls = []

    def spy(normalize):
        def spying(ring, u):
            calls.append((ring, u))
            return normalize(ring, u)
        return spying

    classes = [FusionRing]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        if "normalize" in vars(cls):
            monkeypatch.setattr(cls, "normalize", spy(vars(cls)["normalize"]))
    return calls


def random_element(algebra, rng, labels, max_terms=4, complex_coeffs=True):
    """Seeded random nonzero element with support inside ``labels``."""
    labels = list(labels)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            label = rng.choice(labels)
            n = algebra.ring.dim(label)
            i, j = rng.randint(1, n), rng.randint(1, n)
            if algebra.mode == EXACT:
                re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) \
                    if complex_coeffs else Fraction(0)
                coeff = (re, im)
            else:
                coeff = complex(rng.randint(-9, 9), rng.randint(-3, 3) if complex_coeffs else 0)
            terms[(label, i, j)] = coeff
        a = algebra.element(terms)
        if not a.is_zero():
            return a


def small_support(algebra, rng, gens, max_terms=3):
    """Random element supported on {e} and the given generators."""
    labels = [algebra.ring.unit] + list(gens)
    return random_element(algebra, rng, labels, max_terms=max_terms)


def domain_matrix(M):
    """An exact ScalarMatrix as a sympy DomainMatrix over QQ_I."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    data = {}
    for (r, c), v in M.entries.items():
        data.setdefault(r, {})[c] = QQ_I.new(QQ(v.re.numerator, v.re.denominator),
                                             QQ(v.im.numerator, v.im.denominator))
    return DomainMatrix(data, M.shape, QQ_I)


def fraction_free_rank(M):
    """Rank of an exact ScalarMatrix by sympy's fraction-free elimination
    (rref_den), independent of the Gauss-Jordan RREF and the certificates."""
    _, _, pivots = domain_matrix(M).rref_den()
    return len(pivots)
