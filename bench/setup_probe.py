"""Time xbardse's set-up in this fresh interpreter: `import xbardse` plus
`qnet.load_network` and `qnet.load_dataset` of one workload's files.

    python3 bench/setup_probe.py SRC_DIR NETWORK_FILE DATASET_FILE

Prints the seconds as one JSON number. Exits 2 when xbardse is not
imported from SRC_DIR.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    src, network, dataset = sys.argv[1:4]
    start = perf_counter()
    sys.path.insert(0, src)
    import xbardse
    from xbardse import qnet
    qnet.load_network(network)
    qnet.load_dataset(dataset)
    elapsed = perf_counter() - start
    if not Path(xbardse.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"error: xbardse imported from {xbardse.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
