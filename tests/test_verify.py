"""The split sigma table against its definition.

``sigma_mu_split`` carries the moving table across by the first-order
conversion ``lambda_in_e``; ``verify`` keeps the definition, the b-linear
part of the full right unit, as its oracle.
"""

import pytest

from fglthh import cli, thh, verify
from fglthh.algebroid import MuStructure
from fglthh.cli import main
from fglthh.exactalg import GradedPoly, Substitution
from fglthh.fgl import LazardBasis, x_name
from fglthh.thh import (ExtElement, _split_with_conversion, lambda_in_e,
                        mu_split_flavor, sigma_mu_split, split_sigma_table)
from fglthh.verify import _linear_split_part, split_sigma_by_definition, verify_mu

AGREE = "moving and split sigma agree under the exterior conversion"


def test_linear_split_part_keeps_single_b_terms(structure6):
    ms = structure6
    x1, x2, x3, b1, b2, b3 = (GradedPoly.gen(ms.xb_table, n)
                              for n in ("x_1", "x_2", "x_3", "b_1", "b_2", "b_3"))
    poly = (x2 * b1 - 2 * x1 ** 2 * b1 + 3 * x1 * b2 + b3
            + b1 * b2 + b1 ** 3 + x1 * b1 ** 2 + x3)
    flavor = mu_split_flavor(ms.basis)
    y1, y2 = (GradedPoly.gen(ms.basis.x_table, x_name(n)) for n in (1, 2))
    assert _linear_split_part(ms, flavor, poly) == ExtElement(flavor, {
        (1,): y2 - 2 * y1 ** 2, (2,): 3 * y1, (3,): GradedPoly.one(ms.basis.x_table)})


@pytest.mark.parametrize("N", range(1, 13))
def test_the_first_order_table_is_the_definition(N):
    basis = LazardBasis(N)
    on_base, conv = split_sigma_by_definition(MuStructure(basis))
    fast = sigma_mu_split(basis)
    definition = split_sigma_table(fast.flavor, on_base)
    assert dict(fast.on_base) == dict(definition.on_base)
    assert dict(fast.on_ext) == dict(definition.on_ext)
    assert lambda_in_e(basis) == conv


def _verify_split(capsys):
    code = main(["verify", "--flavor", "mu-split", "--max-degree", "10", "-N", "5"])
    lines = capsys.readouterr().out.splitlines()
    return code, [line for line in lines if AGREE in line]


def test_verify_passes_the_first_order_routes(capsys):
    assert _verify_split(capsys) == (0, [f"[ok] {AGREE}"])


def test_verify_sees_a_changed_conversion_coefficient(monkeypatch, capsys):
    # the x_2 coefficient of e_1 in lambda'_3 goes from 1 to 421; a multiple
    # of 420 keeps every division of the sigma(e_n) solve exact for n <= 6.
    # verify compares the conversion that carried its split table across.
    def perturbed(basis):
        conv = dict(lambda_in_e(basis))
        x2 = GradedPoly.gen(basis.x_table, x_name(2))
        conv[3] = conv[3] + ExtElement.ext_gen(conv[3].flavor, 1, x2.scale(420))
        return conv

    monkeypatch.setattr(thh, "lambda_in_e", perturbed)
    assert _verify_split(capsys) == (1, [f"[FAIL] {AGREE}"])


def test_verify_sees_a_changed_table_coefficient(monkeypatch, capsys):
    # the x_4 coefficient of e_1 in sigma(x_5) goes up by one, and sigma(e_5)
    # is solved again, so that sigma still squares to zero
    def perturbed(basis, moving):
        sig, conv = _split_with_conversion(basis, moving)
        on_base = dict(sig.on_base)
        x4 = GradedPoly.gen(basis.x_table, x_name(4))
        on_base[x_name(5)] = on_base[x_name(5)] + ExtElement.ext_gen(sig.flavor, 1, x4)
        return split_sigma_table(sig.flavor, on_base), conv

    monkeypatch.setattr(verify, "_split_with_conversion", perturbed)
    assert _verify_split(capsys) == (1, [f"[FAIL] {AGREE}"])


def test_split_and_conversion_are_built_once(monkeypatch, capsys):
    counts = {"moving": 0, "conversion": 0}
    moving, conversion = thh.sigma_mu_moving, thh.lambda_in_e

    def counting_moving(basis):
        counts["moving"] += 1
        return moving(basis)

    def counting_conversion(basis):
        counts["conversion"] += 1
        return conversion(basis)

    for module in (thh, verify, cli):
        if hasattr(module, "sigma_mu_moving"):
            monkeypatch.setattr(module, "sigma_mu_moving", counting_moving)
    monkeypatch.setattr(thh, "lambda_in_e", counting_conversion)
    assert _verify_split(capsys)[0] == 0
    assert counts == {"moving": 1, "conversion": 1}
    counts.update(moving=0, conversion=0)
    assert main(["sigma", "--flavor", "mu-split", "--max-n", "4", "-N", "4"]) == 0
    capsys.readouterr()
    assert counts == {"moving": 1, "conversion": 1}


def test_verify_sees_a_substitution_that_is_not_multiplicative(monkeypatch):
    # the ring-map check reads each monomial's image once; a prepared map
    # whose squares are doubled must still fail it
    name = "right unit is a ring map (all pairs, weight <= 5)"
    power = Substitution.power

    def doubled_squares(self, i, e):
        return power(self, i, e).scale(2) if e == 2 else power(self, i, e)

    assert {r.name: r.ok for r in verify_mu("mu-moving", 3, 3)}[name]
    monkeypatch.setattr(Substitution, "power", doubled_squares)
    assert not {r.name: r.ok for r in verify_mu("mu-moving", 3, 3)}[name]
