"""The obs seam guard: no always-on instrumentation outside ``repro.obs``.

Every tracer/registry touch outside the obs package must sit behind the
one-attribute-test ``OBS.enabled`` gate.  Reaching the instruments any other
way (``get_tracer``/``get_registry``/``obs.install`` or the null singletons)
is an off-seam leak.  The guarded set is discovered, not listed, so a new
instrumented module is covered the moment it names ``OBS``.
"""

import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
OFF_SEAM = re.compile(r"get_tracer|get_registry|obs\.install|NULL_TRACER|NULL_REGISTRY")
NAMES_OBS = re.compile(r"\bOBS\b")

# Hot modules the guard has always covered; discovery must keep finding them.
HOT_MODULES = {
    "runtime/kernels.py",
    "pq/flat.py",
    "pq/bitmap.py",
    "core/framework.py",
    "shard/executor.py",
    "shard/partition.py",
    "serving/server.py",
    "serving/admission.py",
    "dynamic/updates.py",
    "dynamic/incremental.py",
    "labels/landmarks.py",
    "labels/hublabels.py",
    "labels/store.py",
    "labels/query.py",
}


def _modules():
    """Every ``repro`` source file outside the obs package, by relative path."""
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if not rel.startswith("obs/"):
            yield rel, path.read_text()


SOURCES = dict(_modules())
INSTRUMENTED = sorted(rel for rel, text in SOURCES.items() if NAMES_OBS.search(text))


def test_discovery_covers_the_hot_modules():
    assert HOT_MODULES <= set(INSTRUMENTED)


def test_no_off_seam_access():
    hits = [
        f"{rel}:{lineno}: {line.strip()}"
        for rel, text in SOURCES.items()
        for lineno, line in enumerate(text.splitlines(), 1)
        if OFF_SEAM.search(line)
    ]
    assert not hits, "observability reached outside the OBS seam:\n" + "\n".join(hits)


def test_instrumented_modules_keep_their_gate():
    ungated = [rel for rel in INSTRUMENTED if "OBS.enabled" not in SOURCES[rel]]
    assert not ungated, f"modules name OBS but lost their OBS.enabled gate: {ungated}"
