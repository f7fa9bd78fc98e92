"""The repo benchmark's traced run must find every call site it times.

``perfbench/layers.py`` swaps timing wrappers in for named attributes of
program modules and classes (``_patches()``).  Renaming or deleting one of
those names makes ``perfbench/run.py --trace 1`` die with ``AttributeError``
— a failure the untraced benchmark and the rest of this suite never see.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402


def test_every_patched_call_site_resolves():
    patches = layers._patches()
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in patches
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"benchmark patch sites missing from the program: {missing}"
