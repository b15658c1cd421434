#!/usr/bin/env python3
"""List exported values that no product code uses, against an allowlist.

A top-level `val` of a `lib/**/*.mli` is dead when its name occurs in
no .ml/.mli file of lib/, bin/, bench/, perfbench/ or examples/ other
than its own module's two files.  The match is on the bare name, so a
name that also occurs elsewhere for another reason is not reported.

The script prints every dead value as `lib/dir/module.mli name` and
exits 1 when that list differs from tools/dead_exports.allow, which
gives each kept value with a one-line reason.  Run it from the
repository root:

    python3 tools/dead_exports.py
"""

import os
import re
import sys

PRODUCT_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
ALLOWLIST = os.path.join("tools", "dead_exports.allow")


def sources():
    for top in PRODUCT_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, name)


def dead_values():
    text = {}
    for path in sources():
        with open(path, encoding="utf-8") as f:
            text[path] = f.read()
    dead = []
    for path in sorted(text):
        if not (path.startswith("lib" + os.sep) and path.endswith(".mli")):
            continue
        module = os.path.splitext(path)[0]
        others = [t for p, t in text.items() if os.path.splitext(p)[0] != module]
        for m in re.finditer(r"^val\s+([a-z_][A-Za-z0-9_']*)", text[path], re.M):
            name = m.group(1)
            word = re.compile(
                r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")
            if not any(word.search(t) for t in others):
                dead.append(f"{path} {name}")
    return dead


def allowed():
    entries = []
    with open(ALLOWLIST, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            path, name, reason = (line.split(None, 2) + ["", ""])[:3]
            if not reason:
                sys.exit(f"{ALLOWLIST}: no reason given for {path} {name}")
            entries.append(f"{path} {name}")
    return entries


def main():
    dead, allow = dead_values(), allowed()
    for entry in dead:
        print(entry)
    unlisted = [e for e in dead if e not in allow]
    stale = [e for e in allow if e not in dead]
    for e in unlisted:
        print(f"dead export not in {ALLOWLIST}: {e}", file=sys.stderr)
    for e in stale:
        print(f"{ALLOWLIST} lists a value that is no longer dead: {e}",
              file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
