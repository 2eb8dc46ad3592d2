"""Regenerate the beaver2pc reference transcript artifact.

The committed JSON under ``tests/data/`` pins the wire behaviour of the
default 2PC backend: a post-refactor run with ``backend="beaver2pc"``
must replay bit-identically against it (``Transcript.diff`` empty).
Run from the repo root:

    PYTHONPATH=src python scripts/gen_reference_transcript.py
"""

from repro.audit.conformance import ConformanceCase, run_conformance_case


def main() -> None:
    case = ConformanceCase(model="MLP", axis="baseline", train=True)
    result = run_conformance_case(case, audit=True, capture_payloads=True)
    t = result.transcript
    t.meta["artifact"] = "beaver2pc reference (MLP train, baseline axis)"
    path = "tests/data/beaver2pc_mlp_train_transcript.json"
    t.dump(path)
    print(f"wrote {path}: {len(t)} messages, {t.total_bytes} bytes")


if __name__ == "__main__":
    main()
