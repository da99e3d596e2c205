#!/usr/bin/env bash
# One-command smoke of the benchmark: every workload at the benchmark's
# reduced sizes, one repetition, end to end and traced, plus the ledger's
# own tests.  Finishes in well under a minute; the end-to-end smoke alone
# in under 30 s.  Exits non-zero on the first failed output check.
#
#   ledger/check.sh            # smoke run + traced smoke run + tests
#   ledger/check.sh --quick    # end-to-end smoke run only (< 30 s)
#
# Written to be called from CI as is: it takes no path arguments, finds
# the repository from its own location, and needs only python3 + numpy
# (+ pytest for the full form).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

python3 ledger/run.py --scale smoke --reps 1 --trace 0
if [[ "${1:-}" == "--quick" ]]; then
    exit 0
fi
python3 ledger/run.py --scale smoke --reps 1 --trace 1
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest ledger/tests -q
