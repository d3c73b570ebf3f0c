"""Set-up time of a fresh interpreter, as a user of sparsix would pay it.

    python3 perfbench/probe.py TRAIN_CORPUS MANIFEST

Imports only the program, parses the training corpus, loads the engine
(sha256-verified), builds its codebook and index, and prints one JSON line
holding the monotonic clock at that moment plus the split, so the parent can
time the whole interpreter from spawn to ready.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparsix.codes import build_codebook  # noqa: E402
from sparsix.corpus import parse_corpus  # noqa: E402
from sparsix.index import build_index  # noqa: E402
from sparsix.manifest import load_ensemble  # noqa: E402


def main(corpus: str, manifest: str) -> None:
    t1 = time.perf_counter()
    docs = list(parse_corpus(corpus))
    t2 = time.perf_counter()
    ensemble, _ = load_ensemble(manifest)
    t3 = time.perf_counter()
    cb = build_codebook(ensemble.code_config)
    t4 = time.perf_counter()
    build_index(cb)
    t5 = time.perf_counter()
    ready = time.monotonic()
    split = {
        "ready_monotonic": ready,
        "setup.import_s": t1 - _START,
        "corpus.parse_s": t2 - t1,
        "corpus.docs_per_s": len(docs) / (t2 - t1),
        "manifest.load_ensemble_s": t3 - t2,
        "codes.build_codebook_s": t4 - t3,
        "index.build_index_s": t5 - t4,
    }
    print(json.dumps(split), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
