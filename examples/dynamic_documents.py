#!/usr/bin/env python3
"""Dynamic data: edit, insert into, and delete from audited cloud files.

Implements the extension the paper sketches in Section IV-C ("data
dynamics ... can be easily supported") with the rank-authenticated
dynamic tier: block identifiers carry serial+version numbers, a
rank-annotated Merkle tree authenticates position → identifier, and the
epoch-stamped root is blind-signed like everything else.  Only the
touched blocks (plus the root) are ever re-signed — and a cloud that
serves stale versions is caught.

    python examples/dynamic_documents.py
"""

import random

from repro.core.owner import DataOwner
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp
from repro.pairing import toy_group

PAGE = b"wiki/page"


def main() -> None:
    rng = random.Random(44)
    group = toy_group()
    params = setup(group, k=4)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    store = DynamicStore(params, sem, owner)
    auditor = DynamicAuditor(params, sem.pk, rng=rng)

    def audit(note):
        challenge = auditor.generate_challenge(PAGE)
        ok = auditor.verify(PAGE, challenge, store.generate_proof(PAGE, challenge))
        state = store.file_state(PAGE)
        print(f"{note}: audit {'PASS' if ok else 'FAIL'} "
              f"(n={state.count}, epoch={state.epoch})")
        return ok

    def commit(op):
        auditor.pin_receipt(store.update(PAGE, [op]))

    # Create a 5-paragraph document.
    paragraphs = [b"paragraph %d: initial text" % i for i in range(5)]
    auditor.pin_receipt(store.create(PAGE, paragraphs))
    audit("created   ")

    # Keep a stale copy of paragraph 2 for the replay attack later.
    state = store.file_state(PAGE)
    serial, _ = state.slots[2]
    stale = state.blocks[serial], state.signatures[serial]

    # Edit paragraph 2, insert a new paragraph 1, delete the last one.
    signatures_before = len(sem.transcript)
    commit(UpdateOp("modify", 2, b"paragraph 2: REVISED text"))
    audit("updated   ")
    commit(UpdateOp("insert", 1, b"a brand new paragraph"))
    audit("inserted  ")
    commit(UpdateOp("delete", 5))
    audit("deleted   ")
    print(f"signatures issued for 3 updates: {len(sem.transcript) - signatures_before} "
          "(1 per touched block + 1 per new root — untouched blocks never re-signed)")

    # The replay attack: the cloud quietly serves the pre-edit paragraph 2
    # (now at position 3) with its once-valid signature.
    state.blocks[serial], state.signatures[serial] = stale
    if audit("rolled back"):
        raise SystemExit("stale-version replay went unnoticed")
    print("stale-version replay detected: the old version's identifier "
          "is not under the signed root")


if __name__ == "__main__":
    main()
