"""The uniform driver interface over both protocols."""

import pytest

from regsim.algos import make_algorithm
from regsim.messages import AbdAck, ProtocolError, Write


@pytest.mark.parametrize("name,foreign", [("teff", AbdAck(1)), ("abd", Write(1, b"a"))])
def test_deliver_rejects_the_other_protocols_message(name, foreign):
    algo = make_algorithm(name, 3, 1)
    with pytest.raises(ProtocolError):
        algo.deliver(algo.init(), foreign, 1)
