"""Byte-identity of every output in the behaviour lock's matrix (see
``lock.py``).

On the numpy and BLAS build the digests were recorded with, any digest that
moves fails the test, listing every moved output. On another build the
digests may differ in the last bits of a LAPACK solve: the test then
passes, and the end of the session reports both builds and the outputs that
moved.
"""

import json

from conftest import LOCK_NOTES
from lock import LOCK_FILE, entries, environment, moved


def test_outputs_match_the_lock(tmp_path):
    lock = json.loads(LOCK_FILE.read_text(encoding="utf-8"))
    changed = moved(lock["runs"], entries(tmp_path))
    if environment() == lock["environment"]:
        assert not changed, "outputs moved:\n" + "\n".join(changed)
    else:
        LOCK_NOTES.append(
            f"behaviour lock: recorded on {lock['environment']}, run on "
            f"{environment()}; {len(changed)} outputs differ"
            + "".join(f"\n  {line}" for line in changed))
