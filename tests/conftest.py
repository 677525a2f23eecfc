"""Session-wide fixtures."""
import pytest

from trivalent.catalog import k4, t4
from trivalent.nni import graph_sequence
from trivalent.scissors import build_decomposition


@pytest.fixture(scope="session")
def k4_t4():
    """K4 -> T4: the constructed move sequence and its decomposition, built once."""
    seq = graph_sequence(k4(), t4())
    return seq, build_decomposition(k4(), seq)
