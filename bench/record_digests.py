"""Record the exit code and stdout digest of every crit_playground command.

    python3 bench/record_digests.py

Playground matrices, abstract slice pictures and three-test verdicts have
no oracle inside the benchmark, so their outputs are pinned to the ones
this script records into digests.json.  Rerun it only at a commit whose
outputs are known to be right (the acceptance tests check them against
brute-force oracles); a digest that changes is a changed answer.
"""

import json
import os
import sys

import checks
import oracles
import run
import workloads


def main():
    cli = run.import_cli()
    digests = {}
    for _, argv in workloads.digest_pool():
        rc, out, _ = run.run_command(cli, argv)
        if rc not in (0, 1, 3):
            print("unexpected exit code %d for %s:\n%s" % (rc, " ".join(argv), out), file=sys.stderr)
            return 1
        digests[" ".join(argv)] = [rc, oracles.digest(out)]
    with open(checks.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("%d digests written to %s" % (len(digests), os.path.relpath(checks.DIGEST_FILE)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
