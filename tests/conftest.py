from __future__ import annotations

import pytest
from hypothesis import settings

from fglthh.fgl import LazardBasis, TypicalBasis
from fglthh.algebroid import MuStructure, TypicalStructure
from fglthh.thh import sigma_mu_moving, sigma_mu_split, sigma_bp

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
