from pathlib import Path

import pytest

from nbqc.gf import Field
from nbqc.protograph import from_base_matrix
from nbqc.io_formats import read_base_matrix

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def gf2():
    return Field(1)


@pytest.fixture(scope="session")
def gf4():
    return Field(2)


@pytest.fixture(scope="session")
def gf8():
    return Field(3)


@pytest.fixture(scope="session")
def gf16():
    return Field(4)


@pytest.fixture(scope="session")
def gf256():
    return Field(8)


@pytest.fixture
def square22():
    """2x2 all-ones base graph: one 4-cycle of degree-2 variables."""
    return from_base_matrix([[1, 1], [1, 1]])


@pytest.fixture
def theta23():
    """2 checks, 3 variables, all connected: three 4-cycles, two 6-cycles."""
    return from_base_matrix([[1, 1, 1], [1, 1, 1]])


@pytest.fixture(scope="session")
def ensemble1_matrix():
    """Rate-1/2 base matrix with the GF(16)/Z=9 reference degree profile."""
    return read_base_matrix(FIXTURES / "proto_gf16_z9.txt")


@pytest.fixture(scope="session")
def ensemble2_matrix():
    """Rate-1/2 base matrix with the GF(8)/Z=21 reference degree profile."""
    return read_base_matrix(FIXTURES / "proto_gf8_z21.txt")
