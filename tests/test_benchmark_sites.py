"""The benchmark's traced call sites all exist in the package.

`perfbench/tracing.py` wraps names it looks up on jointnlu's modules. A
rename in the package would otherwise only show up as a failed traced
benchmark run, so the list is checked here, read from the benchmark's own
file without modifying it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_call_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.CALL_SITES


def test_every_call_site_resolves():
    sites = load_call_sites()
    assert sites
    for module_name, attr, _span in sites:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
