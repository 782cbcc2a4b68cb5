#!/usr/bin/env python3
"""Check the stdout of every paper bench against committed digests.

Usage: check_paper_digests.py BUILD_DIR [--update]

Runs each bench named in scripts/paper_digests.json from BUILD_DIR/bench
at --scale=0.1, one after another, and compares the SHA-256 of its
stdout (the printed tables) with the committed digest. Exits non-zero,
naming every bench whose output changed, on any mismatch.

A change that alters a paper result on purpose reruns this with
--update, commits the rewritten digest file, and says why in
CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys

SCALE = "0.1"
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "paper_digests.json")


def stdout_digest(build_dir, bench):
    path = os.path.join(build_dir, "bench", bench)
    done = subprocess.run([path, "--scale=" + SCALE],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit(f"{bench}: exited {done.returncode}")
    return hashlib.sha256(done.stdout).hexdigest()


def main():
    args = sys.argv[1:]
    update = "--update" in args
    args = [a for a in args if a != "--update"]
    if len(args) != 1:
        sys.exit(__doc__.strip().splitlines()[2])
    build_dir = args[0]

    with open(DIGESTS) as f:
        doc = json.load(f)
    if doc["scale"] != SCALE:
        sys.exit(f"{DIGESTS}: digests are for --scale={doc['scale']}")

    mismatched = []
    for bench, want in doc["stdout_sha256"].items():
        got = stdout_digest(build_dir, bench)
        if got == want:
            print(f"ok       {bench}")
        else:
            print(f"CHANGED  {bench}: {got} (committed {want})")
            mismatched.append(bench)
        doc["stdout_sha256"][bench] = got

    if update:
        with open(DIGESTS, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {DIGESTS}")
    elif mismatched:
        sys.exit("paper output changed: " + ", ".join(mismatched))


if __name__ == "__main__":
    main()
