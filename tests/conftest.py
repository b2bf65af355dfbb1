import os
import sys

# write no bytecode under src/ or perfbench/, here or in test subprocesses:
# a cached prymkit changes the peak memory that perfbench/run.py measures
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from fractions import Fraction

import pytest

from prymkit.genus2 import CoverPoint, RosenhainPoint, normal_form_coeffs
from prymkit.pencil3 import PencilParams


@pytest.fixture(scope="session")
def rosenhain():
    return RosenhainPoint(Fraction(9), Fraction(2), Fraction(8))


@pytest.fixture(scope="session")
def cover(rosenhain):
    return CoverPoint(rosenhain, Fraction(3), Fraction(4))


@pytest.fixture(scope="session")
def coeffs_k15(cover):
    return normal_form_coeffs(cover, "k15")


@pytest.fixture(scope="session")
def pencil(cover):
    return PencilParams.from_cover(cover, "k15")


@pytest.fixture(scope="session")
def base_k15(cover, coeffs_k15):
    return PencilParams.base_frame(cover, coeffs_k15)
