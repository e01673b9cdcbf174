import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).parent))

# The library reads no ambient precision (test_precision.py); the tests' own
# oracle arithmetic outside a workprec does (test_zeta's series, test_kernels'
# closed forms, the residuals test_convolution recomputes) and needs > 53 bits.
mpmath.mp.prec = 144


@pytest.fixture(scope="session")
def sweep_1e5():
    from moebius.summatory import prefix_sweep
    return prefix_sweep(100_000)


@pytest.fixture(scope="session")
def mu_oracle_5e4():
    from oracles import mobius_dirichlet_inverse
    return mobius_dirichlet_inverse(50_000)
