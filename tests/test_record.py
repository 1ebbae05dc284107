import copy
import pickle

import pytest

from jrtower._record import Record
from jrtower.factor import EFFORT_QUICK, Effort, Factorization, _factorize_cached
from jrtower.squareclasses import quadratic_subfields
from jrtower.verdict import QuadraticSurd, jr_verdict
from jrtower.wreath import TreeAutomorphism


class Point(Record):
    x: int
    y: int = 0
    label: str | None = None


def test_fields_are_frozen():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 5
    with pytest.raises(AttributeError):
        p.z = 5
    with pytest.raises(AttributeError):
        del p.x
    assert p.x == 1


def test_defaults_and_argument_errors():
    assert Point(3) == Point(3, 0, None) == Point(x=3)
    assert Point(3, label="a").label == "a"
    assert Effort() == Effort(10**6, 10**7)
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, z=2)
    with pytest.raises(TypeError):
        Point(1, 2, None, 4)


@pytest.mark.parametrize("default", [[], {}, set()])
def test_unhashable_default_fails_at_class_creation(default):
    with pytest.raises(ValueError):
        type("Bad", (Record,), {"__annotations__": {"v": "list"}, "v": default})


def test_non_default_field_after_a_default_fails_at_class_creation():
    with pytest.raises(TypeError):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})


def test_subclassing_a_record_with_fields_fails_at_class_creation():
    """A subclass would build its own __init__ and _values from its own
    annotations and drop the base's fields, so it is refused."""
    for base in (Point, QuadraticSurd):
        with pytest.raises(TypeError, match="which has fields"):
            type("Sub", (base,), {})
        with pytest.raises(TypeError, match="which has fields"):
            type("Sub", (base,), {"__annotations__": {"z": "int"}, "z": 0})
    assert Point._fields == ("x", "y", "label")


def test_a_record_without_fields_fails_at_class_creation():
    """Its compiled __init__ would have an empty body."""
    with pytest.raises(TypeError, match="record Empty has no fields"):
        type("Empty", (Record,), {})


def test_value_equality_and_hash():
    assert Point(1, 2) == Point(1, 2)
    assert Point(1, 2) != Point(2, 1)
    assert hash(Point(1, 2)) == hash((1, 2, None))
    # Same fields, different class: not equal.
    other = type("Other", (Record,), {"__annotations__": {"x": "int", "y": "int",
                                                          "label": "str"}})
    assert Point(1, 2, "a") != other(1, 2, "a")
    for nu in (12, 56, 147):
        first, second = jr_verdict(nu, 5), jr_verdict(nu, 5)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert first.jr_upper == second.jr_upper
        assert first != jr_verdict(nu, 4)


def test_unhashable_field_makes_the_record_unhashable():
    lattice = quadratic_subfields(12, 2)
    assert lattice == quadratic_subfields(12, 2)
    with pytest.raises(TypeError):
        hash(lattice)


def test_effort_is_an_lru_cache_key():
    n = 2**61 - 1
    _factorize_cached(n, EFFORT_QUICK)
    hits = _factorize_cached.cache_info().hits
    rebuilt = Effort(trial_bound=EFFORT_QUICK.trial_bound, rho_rounds=EFFORT_QUICK.rho_rounds)
    assert rebuilt is not EFFORT_QUICK
    assert _factorize_cached(n, rebuilt) is _factorize_cached(n, EFFORT_QUICK)
    assert _factorize_cached.cache_info().hits == hits + 2


def test_post_init_invariants_still_run():
    with pytest.raises(ValueError, match="inconsistent factorization"):
        Factorization(12, {2: 2, 3: 2})
    f = Factorization(12, {2: 2, 3: 1})
    with pytest.raises(TypeError):
        f.factors[5] = 1  # the post-init read-only view
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 5, 0)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 5, -2)
    with pytest.raises(ValueError):
        TreeAutomorphism(2, (0, 1))  # depth 2 needs 3 bits
    with pytest.raises(ValueError):
        TreeAutomorphism(1, (2,))


def test_repr_lists_fields_in_declaration_order():
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label=None)"
    assert repr(QuadraticSurd(1, 1, 5, 2)) == "QuadraticSurd(a=1, b=1, D=5, q=2)"
    assert repr(Effort()) == "Effort(trial_bound=1000000, rho_rounds=10000000)"


def test_pickle_round_trip():
    for value in (Point(1, 2, "a"), jr_verdict(12, 5)):
        assert pickle.loads(pickle.dumps(value)) == value


def _jrtower_records():
    import jrtower  # noqa: F401  (defines every record type)

    found, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("jrtower."):
                found.append(sub)
    return found


def test_every_jrtower_record_is_slotted_and_frozen():
    records = _jrtower_records()
    assert len(records) >= 20
    for cls in records:
        assert cls.__slots__ == cls._fields == tuple(cls.__annotations__), cls
        assert cls.__dictoffset__ == 0, cls
        bare = object.__new__(cls)
        assert not hasattr(bare, "__dict__"), cls
        for name in (*cls.__slots__, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(bare, name, 1)


def _verdict_path_records():
    from jrtower.factor import factorize
    from jrtower.orbit import gap_strictness, tower_params
    from jrtower.residue import residue_certificate
    from jrtower.squareclasses import sqrt2_free_certificate

    values = [Effort(), EFFORT_QUICK, factorize(2**4 * 3**2 * 1009),
              factorize(2**67 - 1, EFFORT_QUICK), TreeAutomorphism(2, (1, 0, 1))]
    for nu in (12, 20, 8):
        report = jr_verdict(nu, 5, EFFORT_QUICK)
        params = tower_params(nu)
        values += [report, report.hypothesis, params, sqrt2_free_certificate(params),
                   *report.obstructions, report.alpha, report.jr_upper,
                   gap_strictness(params, 5)]
        if report.scope is not None:
            values.append(residue_certificate(nu))
    return values


def test_records_on_the_verdict_path_pickle_and_deepcopy():
    values = _verdict_path_records()
    assert {type(v).__name__ for v in values} >= {
        "VerdictReport", "HypothesisReport", "TowerParams", "ResidueCertificate",
        "Sqrt2Certificate", "FermatObstruction", "QuadraticSurd", "Strictness",
        "Effort", "Factorization", "TreeAutomorphism"}
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value
            if not isinstance(value, Factorization):  # its view is unhashable
                assert hash(twin) == hash(value)
            assert repr(twin) == repr(value)
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.new_attribute = 1
    f = pickle.loads(pickle.dumps(_factorize_cached(2**61 - 1, EFFORT_QUICK)))
    with pytest.raises(TypeError):
        f.factors[3] = 1  # post-init ran again: still a read-only view
