import pytest

from gradedpi import GroupSpec, TRIVIAL_GROUP, Z2
from gradedpi.errors import MalformedElementError


def test_trivial_group():
    assert TRIVIAL_GROUP.orders == ()
    assert TRIVIAL_GROUP.identity() == ()
    assert TRIVIAL_GROUP.elements() == [()]
    assert TRIVIAL_GROUP.order() == 1
    assert TRIVIAL_GROUP.is_trivial()


def test_z2_table():
    assert Z2.orders == (2,)
    assert Z2.op((0,), (1,)) == (1,)
    assert Z2.op((1,), (1,)) == (0,)
    assert Z2.inverse((1,)) == (1,)
    assert sorted(Z2.elements()) == [(0,), (1,)]
    assert not Z2.is_trivial()


def test_product_group():
    g = GroupSpec((2, 3))
    assert g.order() == 6
    assert g.op((1, 2), (1, 2)) == (0, 1)
    assert g.inverse((1, 2)) == (1, 1)
    assert g.op((1, 1), g.inverse((1, 1))) == g.identity()
    els = g.elements()
    assert len(els) == 6
    assert len(set(els)) == 6
    for a in els:
        for b in els:
            assert g.op(a, b) in set(els)


def test_sum_of_degrees():
    g = GroupSpec((2, 2))
    assert g.sum([(1, 0), (0, 1), (1, 1)]) == (0, 0)
    assert g.sum([]) == g.identity()


def test_validate_rejects_bad_elements():
    g = GroupSpec((2, 3))
    with pytest.raises(MalformedElementError):
        g.validate((0,))
    with pytest.raises(MalformedElementError):
        g.validate((2, 0))
    with pytest.raises(MalformedElementError):
        g.validate((0, -1))
    assert g.validate((1, 2)) == (1, 2)


def test_bad_orders_rejected():
    with pytest.raises(MalformedElementError):
        GroupSpec((0,))
    with pytest.raises(MalformedElementError):
        GroupSpec((2, -3))
