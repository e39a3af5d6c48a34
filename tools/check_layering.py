#!/usr/bin/env python3
"""Enforce the include-DAG between the src/ layers (DESIGN.md §13.5).

Every `#include "layer/..."` in src/ must be an edge the architecture
declares. The map below is the single source of truth for what may depend
on what; a new cross-layer include either belongs here (a deliberate
architecture change, reviewed as such) or is a layering violation.

Usage: python3 tools/check_layering.py [repo-root]
Exit code 0 when clean, 1 with one line per violation otherwise.
"""
from __future__ import annotations

import pathlib
import re
import sys

# layer -> layers it may include. A layer may always include itself.
ALLOWED = {
    "math": set(),
    "telemetry": {"math"},
    "sim": {"math"},
    "sensors": {"math", "sim"},
    "control": {"math", "sim"},
    "estimation": {"math", "sensors", "telemetry"},
    # The bus sits above the domain layers it carries payloads for and below
    # nav/core/uav: bus payloads hold nav enums as raw bytes precisely so
    # this set never needs "nav".
    "bus": {"math", "telemetry", "sim", "sensors", "estimation", "control"},
    "nav": {"math", "telemetry", "sim", "sensors", "estimation", "control"},
    "core": {"math", "telemetry", "sim", "sensors", "estimation", "control", "nav"},
    "uav": {"math", "telemetry", "sim", "sensors", "estimation", "control", "bus",
            "nav", "core"},
    # uspace hosts the fleet engine (DESIGN.md §18): FleetRunner steps one
    # uav::Uav per flight and FleetCampaign dedupes through
    # core::ResultStore — both ride the existing core+uav edges; the fleet
    # record codec lives in telemetry like every other on-disk format.
    "uspace": {"math", "telemetry", "sim", "sensors", "estimation", "control",
               "bus", "nav", "core", "uav"},
    # The campaign-as-a-service daemon: speaks the telemetry wire codec and
    # drives campaigns through core/api.h. It sits beside uspace, above core.
    "serve": {"math", "telemetry", "sim", "sensors", "estimation", "control",
              "bus", "nav", "core", "uav"},
    "app": {"math", "telemetry", "sim", "sensors", "estimation", "control", "bus",
            "nav", "core", "uav", "uspace", "serve"},
}

# File-scoped exceptions for edges outside the map. The campaign drivers in
# core/ orchestrate SimulationRunner, which lives one layer up; the cycle is
# broken at file granularity (nothing in uav/ includes these two headers'
# dependents back). Keep this list short — every entry is architectural debt.
EXCEPTIONS = {
    ("core", "uav"): {"core/campaign.h", "core/campaign.cpp",
                      "core/result_store.h", "core/result_store.cpp"},
    # The .uvsnap codec frames sim::Snapshot (an opaque-bytes container with
    # no behaviour); the telemetry layer holds all on-disk formats.
    ("telemetry", "sim"): {"telemetry/snapshot_codec.h",
                           "telemetry/snapshot_codec.cpp"},
}

INCLUDE_RE = re.compile(r'^\s*#include\s+"([a-z_]+)/')


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    src = root / "src"
    if not src.is_dir():
        print(f"check_layering: no src/ under {root}", file=sys.stderr)
        return 2

    violations = []
    layers = {p.name for p in src.iterdir() if p.is_dir()}
    unknown_layers = layers - set(ALLOWED)
    for layer in sorted(unknown_layers):
        violations.append(f"src/{layer}: layer missing from ALLOWED map in "
                          f"tools/check_layering.py")

    for path in sorted(src.rglob("*")):
        if path.suffix not in {".h", ".cpp"}:
            continue
        rel = path.relative_to(src).as_posix()
        layer = rel.split("/", 1)[0]
        allowed = ALLOWED.get(layer)
        if allowed is None:
            continue  # already reported above
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target == layer or target not in layers:
                continue  # own layer, or a system/third-party path
            if target in allowed:
                continue
            if rel in EXCEPTIONS.get((layer, target), set()):
                continue
            violations.append(
                f"src/{rel}:{lineno}: layer '{layer}' may not include "
                f"'{target}/' (allowed: {', '.join(sorted(allowed)) or 'none'})")

    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} layering violation(s).", file=sys.stderr)
        return 1
    print(f"layering OK: {len(layers)} layers checked.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
