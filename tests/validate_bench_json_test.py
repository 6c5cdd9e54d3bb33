#!/usr/bin/env python3
"""Section rules of scripts/validate_bench_json.py.

The fixture tests/testdata/bench_serving_sections.json holds two runs: run 0
has a "serving" section, run 1 "serving" then "storage". The validator must
accept it and reject each mutated copy below with that mutation's message.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
VALIDATOR = os.path.join(HERE, "..", "scripts", "validate_bench_json.py")
FIXTURE = os.path.join(HERE, "testdata", "bench_serving_sections.json")


def unknown_section(doc):
    doc["runs"][1]["advisor"] = {}


def storage_without_flag(doc):
    doc["runs"][1]["config"]["storage"] = False


def serving_offered_mismatch(doc):
    doc["runs"][0]["serving"]["offered"] += 1


# (mutation, substring the validator's failure message must contain)
MUTATIONS = [
    (unknown_section, "unknown keys: ['advisor']"),
    (storage_without_flag,
     "storage section present iff config.storage is true"),
    (serving_offered_mismatch, "admitted + dropped != offered"),
]


def validate(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    p = subprocess.run([sys.executable, VALIDATOR, path],
                       capture_output=True, text=True, check=False)
    return p.returncode, p.stderr.strip()


def main():
    with open(FIXTURE, "r", encoding="utf-8") as f:
        doc = json.load(f)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        rc, err = validate(doc, path)
        if rc != 0:
            print(f"FAIL: valid fixture rejected (exit {rc}): {err}")
            ok = False
        for mutate, message in MUTATIONS:
            bad = copy.deepcopy(doc)
            mutate(bad)
            rc, err = validate(bad, path)
            if rc != 1 or message not in err:
                print(f"FAIL: {mutate.__name__}: want exit 1 with "
                      f"{message!r}, got exit {rc}: {err}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
