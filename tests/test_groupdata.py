import pytest

from ydweyl.cyclo import CycScalar
from ydweyl.errors import ResourceBoundError, ValidationError
from ydweyl.groupdata import (MAX_GROUP_ORDER, Cocycle3, alpha_scalar,
                              beta_scalar, check_3cocycle, group_from_cayley,
                              make_abelian_group, preantipode_scalar,
                              sign_cocycle)


def test_make_abelian_group_orders():
    assert make_abelian_group([2, 2, 2]).order == 8
    assert make_abelian_group([1]).order == 1
    assert make_abelian_group([2, 2, 4]).order == 16


def test_make_abelian_group_rejects_empty():
    for orders in ([], [0], [2.5], [True, 2], ["2"]):
        with pytest.raises(ValueError):
            make_abelian_group(orders)


def test_group_order_limit():
    assert make_abelian_group([2, MAX_GROUP_ORDER // 2]).order == MAX_GROUP_ORDER
    with pytest.raises(ResourceBoundError):
        make_abelian_group([1000000, 1000000])
    # Checked before the table is read: these rows are not even valid.
    with pytest.raises(ResourceBoundError):
        group_from_cayley([None] * (MAX_GROUP_ORDER + 1))


def test_group_check_and_names():
    g = make_abelian_group([2, 3])
    assert g.check().ok
    assert g.element_name(0) == "1"
    idx = g.element_index((1, 2))
    assert g.element_name(idx) == "g1*g2^2"
    assert g.mul(idx, g.inv(idx)) == 0


def test_group_from_cayley_roundtrip():
    g = make_abelian_group([4])
    h = group_from_cayley([list(row) for row in g.cayley])
    assert h.order == 4 and h.check().ok


def test_group_from_cayley_rejects_nonassociative():
    # A magma with identity 0 that is not associative.
    table = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
    with pytest.raises(ValidationError):
        group_from_cayley(table)


def test_sign_cocycle_values(z2cubed):
    group, phi = z2cubed
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    assert phi.value(h3, h2, h1) == -1
    assert phi.value(h1, h2, h3) == 1
    assert phi.value(0, h2, h3) == 1
    assert phi.value(h1, 0, h3) == 1
    assert phi.value(h1, h2, 0) == 1


def test_sign_cocycle_passes_pentagon(z2cubed):
    _, phi = z2cubed
    assert check_3cocycle(phi).ok


def test_trivial_cocycle_passes(z2cubed):
    group, _ = z2cubed
    assert check_3cocycle(Cocycle3.trivial(group)).ok


def test_corrupted_cocycle_fails_with_witness(z2cubed):
    group, phi = z2cubed
    flat = list(phi._table)
    n = group.order
    flat[(3 * n + 5) * n + 6] = flat[(3 * n + 5) * n + 6] * CycScalar.from_rational(-1)
    bad = Cocycle3(group, flat)
    report = check_3cocycle(bad)
    assert not report.ok
    assert "quadruple" in report.violations[0]


def test_sign_cocycle_needs_three_factors():
    with pytest.raises(ValidationError):
        sign_cocycle(make_abelian_group([2, 2]))


def test_non_normalized_table_rejected(z2cubed):
    group, phi = z2cubed
    flat = list(phi._table)
    flat[0] = CycScalar.from_rational(-1)  # Phi(1,1,1) must be 1
    with pytest.raises(ValidationError):
        Cocycle3(group, flat)


def test_zero_value_rejected(z2cubed):
    group, phi = z2cubed
    flat = list(phi._table)
    flat[-1] = CycScalar.zero()
    with pytest.raises(ValidationError):
        Cocycle3(group, flat)


def test_preantipode_scalars(z2cubed):
    group, phi = z2cubed
    triv = Cocycle3.trivial(group)
    for g in group.elements():
        assert preantipode_scalar(triv, g) == 1
    g123 = group.element_index((1, 1, 1))
    g1 = group.element_index((1, 0, 0))
    assert preantipode_scalar(phi, g123) == -1
    assert preantipode_scalar(phi, g1) == 1


def test_antipode_axiom_at_grouplikes(z2cubed):
    # Phi(g, g^-1, g) * beta(g) * alpha(g) = 1 for all g.
    group, phi = z2cubed
    for g in group.elements():
        product = (phi.value(g, group.inv(g), g)
                   * beta_scalar(phi, g) * alpha_scalar(phi, g))
        assert product == 1


def test_sign_cocycle_on_224_passes():
    group = make_abelian_group([2, 2, 4])
    assert check_3cocycle(sign_cocycle(group)).ok
