"""perfbench/tracer.py wraps regsim functions by (owner, attribute); a
rename that breaks one of those look-ups must fail here, not only in a
benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_wrapped_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines WRAPS; installs nothing
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracer.WRAPS
        if attr not in owner.__dict__
    ]
    assert tracer.WRAPS and not missing
