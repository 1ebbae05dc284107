import copy
import pickle

import pytest

import jrtower as jr
from jrtower.errors import InvariantFailure
from jrtower.factor import EFFORT_QUICK, Effort, Factorization, _factorize_cached
from jrtower.squareclasses import Sqrt2Certificate, TwoIndependence, quadratic_subfields
from jrtower.verdict import QuadraticSurd, jr_verdict
from jrtower.wreath import TreeAutomorphism

# One record of each class of the package, each from a real call.
RECORDS = {
    "Effort": lambda: Effort(trial_bound=10**4),
    "Factorization": lambda: jr.factorize(2**4 * 3**2 * 1009),
    "TowerParams": lambda: jr.tower_params(12),
    "OrbitSequence": lambda: jr.constant_terms(12, 3),
    "ValuationProfile": lambda: jr.valuation_profile(jr.constant_terms(12, 4), 3),
    "Strictness": lambda: jr.tower_strict(jr.constant_terms(36, 3)),
    "FermatNumber": lambda: jr.fermat_number(4),
    "ResidueCertificate": lambda: jr.residue_certificate(78),
    "DiscriminantReport": lambda: jr.discriminant_report(12, 2),
    "TwoIndependence": lambda: jr.two_independent([2, 3, 6]),
    "SubfieldLattice": lambda: quadratic_subfields(12, 2),
    "SqrtMembership": lambda: jr.contains_sqrt(12, 2, 3),
    "Sqrt2Certificate": lambda: jr.sqrt2_free_certificate(jr.tower_params(8)),
    "TreeAutomorphism": lambda: jr.minimal_generators(2)[1],
    "QuadraticSurd": lambda: jr.alpha_surd(12),
    "ConstructibilityDecomposition": lambda: jr.constructible_order(68),
    "FermatObstruction": lambda: jr.fermat_obstruction(12, 5),
    "VerdictReport": lambda: jr_verdict(12, 5),
}


def test_fields_are_frozen():
    surd = QuadraticSurd(1, 2, 5)
    with pytest.raises(AttributeError):
        surd.a = 5
    with pytest.raises(AttributeError):
        surd.z = 5
    with pytest.raises(AttributeError):
        del surd.a
    assert surd.a == 1


def test_defaults_and_argument_errors():
    assert QuadraticSurd(3, 0, 5) == QuadraticSurd(3, 0, 5, 1) == QuadraticSurd(a=3, b=0, D=5)
    assert QuadraticSurd(3, 0, 5, q=2).q == 2
    assert Effort() == Effort(10**6, 10**7)
    with pytest.raises(TypeError):
        QuadraticSurd(1, 2)
    with pytest.raises(TypeError):
        QuadraticSurd(1, 2, 5, z=2)
    with pytest.raises(TypeError):
        QuadraticSurd(1, 2, 5, 1, 4)


def test_value_equality_and_hash():
    surd = QuadraticSurd(1, 2, 5)
    assert surd == QuadraticSurd(1, 2, 5)
    assert surd != QuadraticSurd(2, 1, 5)
    assert hash(surd) == hash((1, 2, 5, 1))
    # A record is a tuple: it equals a plain tuple, or a record of
    # another class, that holds the same values, and it orders as one.
    assert surd == (1, 2, 5, 1)
    assert Sqrt2Certificate(12, True, None) == TwoIndependence(12, True, None)
    assert QuadraticSurd(1, 2, 5) < QuadraticSurd(1, 3, 5)
    assert list(surd) == [1, 2, 5, 1] and surd[2] == 5
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
    """The checks that ran after __init__ now run in __new__."""
    with pytest.raises(ValueError, match="inconsistent factorization"):
        Factorization(12, {2: 2, 3: 2})
    f = Factorization(12, {2: 2, 3: 1})
    with pytest.raises(TypeError):
        f.factors[5] = 1  # the read-only view
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 5, 0)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 5, -2)
    with pytest.raises(ValueError):
        TreeAutomorphism(2, (0, 1))  # depth 2 needs 3 bits
    with pytest.raises(ValueError):
        TreeAutomorphism(1, (2,))


def test_repr_lists_fields_in_declaration_order():
    assert repr(jr.contains_sqrt(12, 2, 3)) == (
        "SqrtMembership(nu=12, n=2, d=3, status='present', rank=2, subset=frozenset({1}))")
    assert repr(QuadraticSurd(1, 1, 5, 2)) == "QuadraticSurd(a=1, b=1, D=5, q=2)"
    assert repr(Effort()) == "Effort(trial_bound=1000000, rho_rounds=10000000)"


def test_pickle_round_trip():
    for value in (QuadraticSurd(1, 2, 5), jr_verdict(12, 5)):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value


def test_every_jrtower_record_is_slotted_and_frozen(record_classes):
    """Each record class is a collections.namedtuple subclass that adds
    no slot, so no record holds a __dict__."""
    assert sorted(cls.__name__ for cls in record_classes) == sorted(RECORDS)
    for cls in record_classes:
        (base,) = cls.__bases__
        assert base.__bases__ == (tuple,) and base.__name__ == cls.__name__, cls
        assert cls.__slots__ == base.__slots__ == (), cls
        assert cls._fields == base._fields and cls._fields, cls
        assert cls.__dictoffset__ == 0, cls


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_each_record_class_round_trips_through_pickle_and_copy(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    twins = [pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)]
    for twin in twins:
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.new_attribute = 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[-1], None)


def forged(name: str, fields: dict):
    """RECORDS[name]() with fields replaced: _replace skips __new__."""
    return RECORDS[name]()._replace(**fields)


@pytest.mark.parametrize("name, fields, message", [
    ("TowerParams", {"two_adic_valuation": 3}, "broken 2-adic decomposition"),
    ("OrbitSequence", {"c": (12, 133, 17412)}, "c recursion broken at index 2"),
    ("FermatNumber", {"value": 2**16}, "not a Fermat number"),
    ("ResidueCertificate", {"scope": "universal"}, "universal scope without a 3/7 kernel"),
    ("DiscriminantReport", {"oracle": 4866049},
     "discriminant recursion and resultant oracle disagree at nu = 12, n = 2"),
    # Fields that a check used to skip: the square flag of nu = 36, and
    # symbols 0 at 5 on each scope. The other two checks of an orbit
    # run on a copy too: its seed and the sign of each c_n.
    ("TowerParams", {"nu": 36, "mu": 9}, "square flag False is wrong for nu = 36"),
    ("OrbitSequence", {"c": (13, 156)}, "orbit sequence seeded incorrectly"),
    ("OrbitSequence", {"nu": 1, "c": (1, 0)}, "c not positive at index 2"),
    ("ResidueCertificate", {"nu": 75, "scope": "universal", "kernel_basis": 3},
     r"Euler's criterion disagrees with jacobi\(75, 5\) = -1"),
    ("ResidueCertificate", {"nu": 20}, r"Euler's criterion disagrees with jacobi\(20, 5\) = -1"),
    # A universal scope with a kernel that holds, but that skips a known
    # prime, here 5, which divides 75.
    ("ResidueCertificate",
     {"nu": 75, "scope": "universal", "checked_primes": (), "kernel_basis": 3},
     r"universal scope skips a known Fermat prime: checked \(\)"),
    ("ResidueCertificate",
     {"nu": 75, "scope": "universal", "checked_primes": (17, 257), "kernel_basis": 3},
     r"universal scope skips a known Fermat prime: checked \(17, 257\)"),
])
def test_copy_and_pickle_run_each_invariant_check(name, fields, message):
    """A record forged past its checks cannot be built from its fields,
    and does not survive a copy or a pickle round trip: both build
    through __new__."""
    record = forged(name, fields)
    with pytest.raises(InvariantFailure, match=message):
        type(record)(*record)
    with pytest.raises(InvariantFailure, match=message):
        copy.copy(record)
    with pytest.raises(InvariantFailure, match=message):
        pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("name, fields, message", [
    ("Factorization", {"cofactor": 5}, "inconsistent factorization of 145296"),
    ("QuadraticSurd", {"q": 0}, "denominator must be positive"),
    ("TreeAutomorphism", {"bits": (1, 0, 2)}, "portrait bits must be 0 or 1"),
])
def test_copy_and_pickle_run_each_argument_check(name, fields, message):
    record = forged(name, fields)
    with pytest.raises(ValueError, match=message):
        copy.copy(record)
    with pytest.raises(ValueError, match=message):
        pickle.loads(pickle.dumps(record))


def _verdict_path_records():
    from jrtower.factor import factorize
    from jrtower.orbit import constant_terms, tower_params, tower_strict
    from jrtower.residue import residue_certificate
    from jrtower.squareclasses import sqrt2_free_certificate

    values = [Effort(), EFFORT_QUICK, factorize(2**4 * 3**2 * 1009),
              factorize(2**67 - 1, EFFORT_QUICK), TreeAutomorphism(2, (1, 0, 1))]
    for nu in (12, 20, 8):
        report = jr_verdict(nu, 5, EFFORT_QUICK)
        params = tower_params(nu)
        values += [report, params, sqrt2_free_certificate(params),
                   *report.obstructions, report.alpha, report.jr_upper,
                   tower_strict(constant_terms(nu, 5))]
        if report.scope is not None:
            values.append(residue_certificate(nu))
    return values


def test_records_on_the_verdict_path_pickle_and_deepcopy():
    values = _verdict_path_records()
    assert {type(v).__name__ for v in values} >= {
        "VerdictReport", "TowerParams", "ResidueCertificate",
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
        f.factors[3] = 1  # __new__ ran again: still a read-only view
