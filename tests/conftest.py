import pytest

from fibretransport.instances import make_instance


@pytest.fixture(scope="session")
def perm():
    return make_instance("perm-c3")


@pytest.fixture(scope="session")
def fol():
    return make_instance("foliation-2sec")


@pytest.fixture(scope="session")
def par():
    return make_instance("parallelization-flat")


@pytest.fixture(scope="session")
def sphere():
    # the default step; tests that need other steps build their own
    return make_instance("sphere-levi-civita")
