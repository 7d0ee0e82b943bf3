"""The split sigma table against its definition.

``sigma_mu_split`` carries the moving table across by the first-order
conversion ``lambda_in_e``; ``verify`` keeps the definition, the b-linear
part of the full right unit, as its oracle.
"""

import pytest

from fglthh import thh, verify
from fglthh.algebroid import MuStructure
from fglthh.cli import main
from fglthh.exactalg import GradedPoly
from fglthh.fgl import LazardBasis, x_name
from fglthh.thh import (ExtElement, lambda_in_e, mu_split_flavor,
                        sigma_mu_split, split_sigma_table)
from fglthh.verify import _linear_split_part, split_sigma_by_definition

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


@pytest.mark.parametrize("modules", [(thh,), (verify,), (thh, verify)],
                         ids=["in-the-table", "in-verify", "in-both"])
def test_verify_sees_a_changed_conversion_coefficient(monkeypatch, capsys, modules):
    # the x_2 coefficient of e_1 in lambda'_3 goes from 1 to 421; a multiple
    # of 420 keeps every division of the sigma(e_n) solve exact for n <= 6.
    # sigma_mu_split reads the thh binding, and verify compares its own.
    def perturbed(basis):
        conv = dict(lambda_in_e(basis))
        x2 = GradedPoly.gen(basis.x_table, x_name(2))
        conv[3] = conv[3] + ExtElement.ext_gen(conv[3].flavor, 1, x2.scale(420))
        return conv

    for module in modules:
        monkeypatch.setattr(module, "lambda_in_e", perturbed)
    assert _verify_split(capsys) == (1, [f"[FAIL] {AGREE}"])


def test_verify_sees_a_changed_table_coefficient(monkeypatch, capsys):
    # the x_4 coefficient of e_1 in sigma(x_5) goes up by one, and sigma(e_5)
    # is solved again, so that sigma still squares to zero
    def perturbed(basis):
        sig = sigma_mu_split(basis)
        on_base = dict(sig.on_base)
        x4 = GradedPoly.gen(basis.x_table, x_name(4))
        on_base[x_name(5)] = on_base[x_name(5)] + ExtElement.ext_gen(sig.flavor, 1, x4)
        return split_sigma_table(sig.flavor, on_base)

    monkeypatch.setattr(verify, "sigma_mu_split", perturbed)
    assert _verify_split(capsys) == (1, [f"[FAIL] {AGREE}"])
