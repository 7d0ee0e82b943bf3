from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import settings

from fglthh.fgl import LazardBasis, TypicalBasis
from fglthh.algebroid import MuStructure, TypicalStructure
from fglthh.thh import _split_with_conversion, sigma_mu_moving, sigma_mu_split, sigma_bp
from fglthh.cohomology import cohomology_groups

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def lazard6():
    return LazardBasis(6)


@pytest.fixture(scope="session")
def structure6(lazard6):
    return MuStructure(lazard6)


@pytest.fixture(scope="session")
def lazard8():
    return LazardBasis(8)


@pytest.fixture(scope="session")
def lazard10():
    return LazardBasis(10)


@pytest.fixture(scope="session")
def structure10(lazard10):
    return MuStructure(lazard10)


@pytest.fixture(scope="session")
def sigma_moving10(lazard10):
    return sigma_mu_moving(lazard10)


@pytest.fixture(scope="session")
def sigma_split10(lazard10):
    return sigma_mu_split(lazard10)


@pytest.fixture(scope="session")
def mu_tables24():
    """The mu-split sigma table at N = 12, the conversion that carries the
    mu-moving table into it, and each flavor's cohomology through degree 24."""
    basis = LazardBasis(12)
    moving = sigma_mu_moving(basis)
    split, conv = _split_with_conversion(basis, moving)
    return SimpleNamespace(split=split, conv=conv, groups={
        "mu-moving": cohomology_groups(moving, 24), "mu-split": cohomology_groups(split, 24)})


@pytest.fixture(scope="session", params=(2, 3, 5))
def prime(request):
    return request.param


@pytest.fixture(scope="session")
def typical_bases():
    return {p: TypicalBasis(p, 4) for p in (2, 3, 5)}


@pytest.fixture(scope="session")
def typical_structures(typical_bases):
    return {p: TypicalStructure(tb) for p, tb in typical_bases.items()}


@pytest.fixture(scope="session")
def sigma_bp_tables():
    # index 3 covers every degree range and theorem check in the suite
    return {p: sigma_bp(TypicalBasis(p, 3)) for p in (2, 3, 5)}
