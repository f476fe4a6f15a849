"""Every report of ``tests/golden.py``'s fixed runs is byte-identical to the
one its digest was written from."""

import json

from . import golden


def test_reports_match_golden_digests():
    doc = json.loads(golden.GOLDEN.read_text())
    now = golden.versions()
    moved = {name: f"{doc['versions'].get(name)} -> {version}"
             for name, version in now.items() if doc["versions"].get(name) != version}
    assert not moved, (
        f"digests were written with other versions ({moved}); check the reports by hand, "
        "then rewrite them with `PYTHONPATH=src python -m tests.golden --write`")
    found = golden.digests()
    assert found.keys() == doc["digests"].keys()
    changed = sorted(name for name, digest in found.items() if digest != doc["digests"][name])
    assert not changed, f"reports changed: {changed}"
