"""The result records are immutable __slots__ value classes."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from hkpell import autgroups, cones, discform, lattice, pell, periods, rrinv
from hkpell import arith
from hkpell.arith import Record

# every record class, with constructor arguments that pass its checks
RECORDS = [
    (pell.PellSolution, (3, 2)),
    (pell.PellEquation, (1, 13, -4)),
    (pell.SolutionClass, (pell.PellSolution(3, 1), None)),
    (pell.Solvability, (True, False)),
    (cones.ExtremalSlope, (True, Fraction(5, 2))),
    (cones.DivisorClass, (2, 1)),
    (cones.ConeReport, (cones.ExtremalSlope(False, Fraction(1, 2)),
                        cones.ExtremalSlope(False, Fraction(1, 3)), (Fraction(1, 3),),
                        False, True)),
    (lattice.Block, ("U", ((0, 1), (1, 0)))),
    (lattice.LatticeSpec, ((lattice.U, lattice.U),)),
    (lattice.LatticeVector, (lattice.LatticeSpec((lattice.U,)), (1, 1))),
    (discform.DiscGroup, ((2,), (Fraction(3, 2),), ((Fraction(3, 4),),))),
    (lattice.OrbitKey, (-2, 2, Fraction(3, 2))),
    (lattice.ComponentCount, (None, "untabulated")),
    (autgroups.GroupTag, ("unknown", "no witness")),
    (rrinv.RiemannRochInput, (rrinv.KUMMER, 2, 4)),
    (periods.HeegnerKey, (6, -12, 2, (0, 1))),
    (arith.WallConstraint, (1, 2, -10)),
    (arith.WallType, (-10, 2, False)),
    (periods.ComponentReport, (1, (periods.HeegnerKey(6, -12, 2, (0, 1)),), True)),
    (periods.ExclusionReport, ((periods.HeegnerKey(6, -12, 2, (0, 1)),), ())),
    (periods._Model, (4, 1, 2, ((-6, -3), (-3, -2)), None, ())),
]


def _twin(cls):
    """A record class with the same fields as cls, unrelated to it."""
    return type(f"Twin{cls.__name__}", (Record,), {"__slots__": cls.__slots__})


def test_every_record_is_listed():
    classes = {cls for cls, _ in RECORDS}
    assert len(classes) == 21
    for mod in (pell, cones, discform, lattice, autgroups, rrinv, periods):
        for obj in vars(mod).values():
            if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == mod.__name__:
                assert obj in classes, obj


@pytest.mark.parametrize("cls,args", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_records_keep_value_semantics(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert tuple(getattr(a, name) for name in cls.__slots__) == args
    # only within one class
    assert a != _twin(cls)(*args)
    assert a != args
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(a) == f"{cls.__qualname__}({shown})"
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert not hasattr(a, "__dict__")
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a


@pytest.mark.parametrize("cls,args", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_records_take_fields_by_name(cls, args):
    assert cls(**dict(zip(cls.__slots__, args))) == cls(*args)
    twin = _twin(cls)
    assert "__init__" not in vars(twin)
    assert twin(*args[:1], **dict(zip(cls.__slots__[1:], args[1:]))) == twin(*args)


@pytest.mark.parametrize("cls,args", [(periods.HeegnerKey, (6, -12, 2, (0, 1))),
                                      (pell.PellEquation, (1, 13, -4))],
                         ids=lambda v: getattr(v, "__name__", ""))
def test_records_refuse_bad_fields(cls, args):
    first, *rest = cls.__slots__
    by_name = dict(zip(rest, args[1:]))
    missing = cls.__slots__[-1]
    calls = {
        "missing": ((*args[:-1],), {}),
        "missing by name": ((args[0],), {k: v for k, v in by_name.items() if k != missing}),
        "extra positional": ((*args, 0), {}),
        "unknown keyword": (args, {"extra": 0}),
        "given twice": ((args[0],), {first: args[0], **by_name}),
    }
    for what, (values, named) in calls.items():
        with pytest.raises(TypeError) as err:
            cls(*values, **named)
        if cls is periods.HeegnerKey:  # Record's own constructor names the fields
            assert str(err.value).startswith("HeegnerKey(d, kappa_prim_sq, s, star): "), what


def test_set_field_is_gone():
    assert "set_field" not in vars(arith)


def test_keyword_arguments_and_defaults():
    mov = cones.ExtremalSlope.rational(1)
    rep = cones.ConeReport(mov_slope=mov, nef_slope=mov, interior_walls=(), symmetric=True)
    assert (rep.walls_infinite, rep.symmetric) == (False, True)
    assert autgroups.GroupTag("z2") == autgroups.Z2 and autgroups.Z2.reason == ""
    assert lattice.ComponentCount(1).note == ""
    assert lattice.OrbitKey(-2, 2).star_q == Fraction(3, 2)  # derived: -2/4 mod 2
    assert pell.PellEquation.classical(13, -4) == pell.PellEquation(e1=1, e2=13, t=-4)


def test_reprs():
    assert repr(pell.PellSolution(649, 180)) == "PellSolution(a=649, b=180)"
    assert repr(autgroups.GroupTag("z2")) == "GroupTag(kind='z2', reason='')"
    assert repr(periods.HeegnerKey(6, -12, 2, (0, 1))) == \
        "HeegnerKey(d=6, kappa_prim_sq=-12, s=2, star=(0, 1))"
    assert repr(lattice.OrbitKey(-2, 2)) == \
        "OrbitKey(square=-2, star_order=2, star_q=Fraction(3, 2))"


@pytest.mark.parametrize("cls", [pell.PellSolution, periods.HeegnerKey])
def test_ordered_records_sort_by_field_tuple(cls):
    if cls is pell.PellSolution:
        fields = [(3, 2), (2, 5), (3, 1), (10, 0), (2, 4)]
    else:
        fields = [(6, -12, 2, (0, 1)), (6, -12, 1, (1, 0)), (2, 0, 2, (0,)),
                  (6, -12, 2, (0, 0)), (2, -4, 2, (1,))]
    objs = [cls(*f) for f in fields]
    assert [tuple(getattr(o, n) for n in cls.__slots__) for o in sorted(objs)] == sorted(fields)
    a, b = cls(*sorted(fields)[0]), cls(*sorted(fields)[1])
    assert a < b and a <= b and b > a and b >= a and a <= cls(*sorted(fields)[0])
    with pytest.raises(TypeError):
        a < _twin(cls)(*sorted(fields)[1])


def test_unordered_records_refuse_order():
    with pytest.raises(TypeError):
        cones.DivisorClass(1, 2) < cones.DivisorClass(2, 1)


@pytest.mark.parametrize("make,error,message", [
    (lambda: pell.PellEquation(1, 0, 1), ValueError, "must be positive, got e1=1, e2=0"),
    (lambda: pell.PellEquation(1, 13, 0), ValueError, "right-hand side t must be nonzero"),
    (lambda: cones.ExtremalSlope(False, Fraction(-1)), ValueError, "slopes are nonnegative"),
    (lambda: lattice.OrbitKey(-2, 0), ValueError, "star_order must be positive"),
    (lambda: lattice.OrbitKey(-2, 2, Fraction(1, 2)), ValueError,
     "star_q must be square/star_order^2 modulo 2"),
    (lambda: lattice.Block("odd", ((1,),)), ValueError, "lattice must be even"),
    (lambda: lattice.Block("ragged", ((0, 1), (1,))), ValueError, "Gram matrix must be square"),
    (lambda: lattice.Block("skew", ((0, 1), (2, 0))), ValueError,
     "Gram matrix must be symmetric"),
    (lambda: lattice.LatticeVector(lattice.LatticeSpec((lattice.U,)), (1,)), ValueError,
     "coordinate length does not match the lattice rank"),
    (lambda: rrinv.RiemannRochInput("X", 1, 0), ValueError, "unknown series 'X'"),
    (lambda: rrinv.RiemannRochInput(rrinv.HILB_K3, 0, 0), ValueError, "m must be at least 1"),
    (lambda: rrinv.RiemannRochInput(rrinv.HILB_K3, 1, 1), rrinv.OddSquare,
     "the square q must be even"),
])
def test_records_keep_their_checks(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()
