"""Frozen records keep what frozen dataclasses gave, without generated code."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import eistheta
from eistheta import fourier
from eistheta.eisenstein import WeightSequence, WeightTarget
from eistheta.fourier import QExpansion
from eistheta.genus import ClassRecord
from eistheta.records import record

from oracles import CongruenceResult


@record
class Pair:
    """Two fields and a method."""

    a: int
    b: tuple

    def total(self):
        return self.a + len(self.b)


def test_record_fields_defaults_and_repr():
    assert Pair._fields == ("a", "b")
    assert Pair(1, ()) == Pair(a=1, b=())
    assert repr(Pair(1, (2,))) == "Pair(a=1, b=(2,))"
    assert Pair(1, (2, 3)).total() == 3
    assert Pair.__doc__ == "Two fields and a method."
    assert repr(WeightTarget(7, 2, 0)) == "WeightTarget(p=7, k=2, j=0)"
    with pytest.raises(TypeError):  # no field has a default
        Pair(1)


def test_a_field_may_not_have_a_default():
    # a namedtuple built without defaults would drop the value silently
    with pytest.raises(TypeError, match="field 'b' of Bad has a default"):
        @record
        class Bad:
            a: int
            b: int = 0


def test_record_equals_only_its_own_class():
    t = WeightTarget(7, 2, 0)
    assert t == WeightTarget(7, 2, 0) and not t != WeightTarget(7, 2, 0)
    assert t != WeightTarget(7, 4, 0)
    for other in ((7, 2, 0), [7, 2, 0], Pair(7, (2, 0))):
        assert t != other and other != t
        assert not t == other and not other == t
    assert ClassRecord(((2,),), 2) != CongruenceResult(((2,),), 2)
    assert hash(t) == hash(WeightTarget(7, 2, 0))
    assert {t: 1}[WeightTarget(7, 2, 0)] == 1
    with pytest.raises(TypeError):  # a dict field is unhashable
        hash(QExpansion(1, 4, {}))


def test_record_is_immutable():
    t = WeightTarget(7, 2, 0)
    for name in ("p", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, 3)
    with pytest.raises(AttributeError):
        del t.p


def test_post_init_checks_and_normalizes():
    with pytest.raises(ValueError, match="odd prime"):
        WeightTarget(9, 2, 0)
    with pytest.raises(ValueError, match="j must be 0 or 1"):
        WeightTarget(7, 2, 2)
    seq = WeightSequence(WeightTarget(7, 2, 0), [1, 2, 3])
    assert seq.b_schedule == (1, 2, 3) and len(seq) == 3
    assert seq.weights == (44, 296, 2060)
    with pytest.raises(ValueError, match="strictly increasing"):
        WeightSequence(WeightTarget(7, 2, 0), [2, 1])
    F = QExpansion(1, 4, {((2,),): 3, ((4,),): 0})
    assert F.coeffs == {((2,),): Fraction(3)}
    with pytest.raises(ValueError, match="not canonical"):
        QExpansion(2, 4, {((2, 1), (1, 2)): 1})


def test_every_construction_calls_post_init_as_looked_up_then(monkeypatch):
    calls = []
    real = QExpansion.__post_init__
    monkeypatch.setattr(QExpansion, "__post_init__", lambda self: calls.append(1) or real(self))
    QExpansion(1, 4, {((2,),): 1})
    F = fourier._from_checked(2, 4, {((2, 1), (1, 2)): 5, ((2, 0), (0, 2)): 0})
    assert calls == [1, 1]
    # _from_checked skips the canonical check only: the index is kept as given
    assert F.coeffs == {((2, 1), (1, 2)): 5}


def test_import_does_not_load_dataclasses():
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # every submodule: import eistheta alone loads none of them
    code = ("import sys, eistheta.cli\nfrom eistheta import *\n"
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
