"""Set-up time of one fresh interpreter: `import empskit` plus the workload's first op.

Usage: python3 probe.py SRC_DIR OP_JSON

OP_JSON holds {"kind": ..., "payload": ...} for one op (see ops.CALLS);
a "haar" payload is a list of [re, im] pairs. The clock starts just before
the import, so numpy's import is counted, and input decoding is not.
Then times the calibration kernel (speed.py) in the same process. Prints
{"setup_s": seconds, "kernel_s": seconds, "result": exit code or null}.
"""

import json
import sys
import time


def main() -> int:
    src, op_path = sys.argv[1], sys.argv[2]
    with open(op_path, encoding="utf-8") as fh:
        op = json.load(fh)
    payload = op["payload"]
    if op["kind"] == "haar":
        payload = [complex(re, im) for re, im in payload]
    sys.path.insert(0, src)
    import ops

    start = time.perf_counter()
    kit = ops.Kit()
    result = ops.CALLS[op["kind"]](kit, payload)
    elapsed = time.perf_counter() - start
    import speed

    print(json.dumps({"setup_s": elapsed, "kernel_s": speed.sample(),
                      "result": result if isinstance(result, int) else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
