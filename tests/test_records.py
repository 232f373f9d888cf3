"""Semantics of the result records built by `errors.record`.

Every result type is an immutable record: equal only to a record of its own
class with equal fields, hashable (so usable as a cache or dict key),
refusing assignment, and printed exactly as a frozen dataclass would print
it, unless the class defines its own repr (a parity witness names its class
source, a function, instead of printing the function object). The reprs
below are pinned, since error messages and stderr carry them.
"""

from functools import lru_cache

import pytest

from orthdet import gl
from orthdet.gl import PrimePower, as_odd_prime_power, sign_pair_determinant, unipotent_determinant
from orthdet.hecke import QIntProduct, hecke_determinant
from orthdet.oracle import build_seminormal, gram_form
from orthdet.parker import verify_parker_unipotent
from orthdet.squareclass import SquareClass
from orthdet.tableaux import enumerate_syt

GRAPH_21 = (
    "TableauGraph(shape=(2, 1), contents=((0, 1, -1), (0, -1, 1)), "
    "edges=((0, 1, 2),), distances=(0, 1))"
)

# (name, builder, repr of the record it builds).
RECORDS = [
    ("PrimePower", lambda: as_odd_prime_power(9), "PrimePower(p=3, r=2, q=9)"),
    ("GlDetResult", lambda: unipotent_determinant((2, 1), 3),
     "GlDetResult(kind='unipotent', shapes=((2, 1),), q=PrimePower(p=3, r=1, q=3), "
     "symbolic=QIntProduct([3]), parts=(('hecke', QIntProduct(x [3])), "
     "('q-power', QIntProduct(x))))"),
    ("GlDetResult-sgnpair", lambda: sign_pair_determinant((1,), (1,), 5),
     "GlDetResult(kind='sign-pair', shapes=((1,), (1,)), q=PrimePower(p=5, r=1, q=5), "
     "symbolic=QIntProduct(1), parts=(('induction', QIntProduct(1)),))"),
    ("QIntProduct", lambda: QIntProduct(1, ((3, 1),)), "QIntProduct(x [3])"),
    ("HeckeDetResult", lambda: hecke_determinant((2, 1), 3),
     "HeckeDetResult(shape=(2, 1), q=3, symbolic=QIntProduct(x [3]))"),
    ("ParityReport", lambda: verify_parker_unipotent(3, (3,), witness_limit=1),
     "ParityReport(family='unipotent', n_max=3, q_values=(3,), checked=1, failures=(), "
     "witnesses=(ParityWitness(shapes=((2, 1),), q=3, mask=8, source=unipotent_row),))"),
    ("ParityWitness", lambda: verify_parker_unipotent(3, (3,), witness_limit=1).witnesses[0],
     "ParityWitness(shapes=((2, 1),), q=3, mask=8, source=unipotent_row)"),
    ("SquareClass", lambda: SquareClass(-1, 6), "SquareClass(-6)"),
    ("TableauGraph", lambda: enumerate_syt((2, 1)), GRAPH_21),
    ("SeminormalRep", lambda: build_seminormal((2, 1), 3),
     f"SeminormalRep(shape=(2, 1), q=3, scale=16, graph={GRAPH_21}, "
     "generators=(((48, -16), (0, 1), (0, 0)), ((-4, 36), (1, 0), (39, 16))))"),
    ("GramForm", lambda: gram_form(build_seminormal((2, 1), 3)),
     "GramForm(diagonal=(39, 16), determinant=624)"),
]


@pytest.fixture(params=RECORDS, ids=[name for name, _, _ in RECORDS])
def case(request):
    _, build, text = request.param
    return build(), text


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value.__match_args__)


def test_repr_is_the_dataclass_text(case):
    value, text = case
    assert repr(value) == text


def test_equal_records_built_apart_are_equal_and_hash_equal(case):
    value, _ = case
    by_position = type(value)(*_fields(value))
    by_keyword = type(value)(**dict(zip(value.__match_args__, _fields(value))))
    assert by_position is not value
    assert value == by_position == by_keyword
    assert hash(value) == hash(by_position) == hash(by_keyword)
    assert {value: "stored"}[by_keyword] == "stored"

    @lru_cache(maxsize=None)
    def key_of(record_key):
        return object()

    assert key_of(value) is key_of(by_position) is key_of(by_keyword)
    assert key_of.cache_info().hits == 2


def test_equality_holds_only_within_one_class(case):
    value, _ = case
    assert value != _fields(value)
    assert _fields(value) != value
    assert value != object()
    other = PrimePower(3, 1, 3) if type(value) is not PrimePower else SquareClass(1, 3)
    assert value != other


def test_fields_refuse_assignment_and_deletion(case):
    value, _ = case
    name = value.__match_args__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert getattr(value, name) is before


def test_construction_takes_exactly_the_fields():
    assert SquareClass(sign=-1, squarefree=6) == SquareClass(-1, squarefree=6) == SquareClass(-1, 6)
    for args, kwargs in [((1,), {}), ((1, 5, 7), {}), ((1,), {"sign": 1}), ((1,), {"other": 5})]:
        with pytest.raises(TypeError, match="SquareClass takes the fields"):
            SquareClass(*args, **kwargs)


def test_match_args_name_the_fields_in_order():
    match SquareClass(-1, 6):
        case SquareClass(sign, squarefree):
            assert (sign, squarefree) == (-1, 6)
    assert PrimePower.__match_args__ == ("p", "r", "q")
    assert QIntProduct.__match_args__ == ("x_exp", "qint_mults")


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="sign must be"):
        SquareClass(2, 1)
    with pytest.raises(ValueError, match="squarefree part must be positive"):
        SquareClass(1, 0)


def test_positions_are_private_and_no_field():
    # A graph's rows, built from its contents on first access, are no
    # field: they take no part in equality, hashing or the repr.
    graph = enumerate_syt((2, 1))
    assert graph.__match_args__ == ("shape", "contents", "edges", "distances")
    assert graph.nodes == (((1, 2), (3,)), ((1, 3), (2,)))
    fresh = type(graph)(*_fields(graph))
    assert "nodes" not in vars(fresh)
    assert graph == fresh and hash(graph) == hash(fresh) and repr(graph) == GRAPH_21


def test_cached_properties_are_computed_once(monkeypatch):
    product = QIntProduct(0, ((2, 1), (400, 3)))
    mask = product.mask
    assert mask == 1 << 2 | 1 << 400 and product.mask is mask
    assert vars(product)["mask"] is mask
    assert product == QIntProduct(0, ((2, 1), (400, 3)))

    calls = []
    exact = gl._degree_and_exponent

    def counted(shape, q):
        calls.append((shape, q))
        return exact(shape, q)

    monkeypatch.setattr(gl, "_degree_and_exponent", counted)
    result = unipotent_determinant((3, 1, 1), 3)
    assert (result.degree, result.q_exponent, result.degree) == (3510, 1752, 3510)
    assert calls == [((3, 1, 1), 3)]
    # A cached value is no field: the record still equals a fresh one.
    assert result == unipotent_determinant((3, 1, 1), 3)

