import importlib.util
from pathlib import Path

import pytest

from mcgseq import build_manifold
from mcgseq.sequence import SpottedMarking
from mcgseq.textio import parse_spotted_marking

MSTAR_TEXT = """
type A pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1
summand 1 A
summand 2 A
handles 2
"""

K2L1_TEXT = """
type A pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1
summand 1 A
summand 2 A
handles 1
"""

TWO_TYPES_TEXT = """
type A pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1
type B pi1=Z/3 mcg=Z/1
summand 1 A
summand 2 A
summand 3 B
handles 1
"""

# three homeomorphic summands whose mcg is S3 (r, s rotations; a, b, c
# reflections), acting on pi1 = Z/3 through the sign: a non-abelian mcg with
# three swapIrr pairs, so the order of aut products and of swaps matters
S3_SIGN_TEXT = """
type T pi1=Z/3 mcg=table[e,r,s,a,b,c;e,r,s,a,b,c|r,s,e,b,c,a|s,e,r,c,a,b|a,c,b,e,s,r|b,a,c,r,e,s|c,b,a,s,r,e] act=r:g1;s:g1;a:g1^2;b:g1^2;c:g1^2
summand 1 T
summand 2 T
summand 3 T
handles 1
"""

# three summands with free pi1 and a free, non-abelian mcg: aut merges and
# the pushes of a slide past aut letters depend on their order, and the
# swapIrr letters do not commute
FREE_MCG_TEXT = """
type H pi1=F2 mcg=F2 act=g1:g2,g1;g1^-1:g2,g1;g2:g1,g1*g2;g2^-1:g1,g1^-1*g2
summand 1 H
summand 2 H
summand 3 H
handles 1
"""

SPOTTED_TEXT = """
type V0 pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1
cap V0
spots 3
"""


@pytest.fixture(scope="session")
def mstar():
    """Reference manifold A # A # (S^2 x S^1)^2."""
    return build_manifold(MSTAR_TEXT)


@pytest.fixture(scope="session")
def k2l1():
    """A # A # S^2 x S^1: the small manifold of the worked examples."""
    return build_manifold(K2L1_TEXT)


@pytest.fixture(scope="session")
def mixed_types():
    """Two A-summands plus one B-summand and a handle."""
    return build_manifold(TWO_TYPES_TEXT)


@pytest.fixture(scope="session")
def s3_sign():
    """T # T # T # S^2 x S^1 with mcg(T) = S3 acting on Z/3 by the sign."""
    return build_manifold(S3_SIGN_TEXT)


@pytest.fixture(scope="session")
def free_mcg():
    """H # H # H # S^2 x S^1 with pi1(H) = F2 and a free mcg acting on it."""
    return build_manifold(FREE_MCG_TEXT)


@pytest.fixture(scope="session")
def spotted() -> SpottedMarking:
    return parse_spotted_marking(SPOTTED_TEXT)


def load_script(name):
    """``scripts/<name>.py`` as a module, without running its ``main``."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
