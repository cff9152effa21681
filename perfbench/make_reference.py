"""Record the final held-out loss of the train workload for a range of seeds.

    PYTHONPATH=src python3 perfbench/make_reference.py 0 49

The train workload checks every train_grouped call against the value
stored here for its seed (relative tolerance ``worker.REFERENCE_REL_TOL``).
Regenerate only when the training arithmetic is meant to change, and say
so in the change that does it.
"""

import json
import os
import sys

import worker

PATH = os.path.join(worker.HERE, "reference_losses.json")


def main(first: int, last: int) -> int:
    with open(PATH) as fh:
        table = json.load(fh)
    for seed in range(first, last + 1):
        split, fc, cfg = worker.Train.inputs(seed)
        table["losses"][str(seed)] = {
            v: worker.mt.training.train_grouped(split, fc, v, cfg)[1][-1]["eval_loss"]
            for v in worker.VARIANTS}
    table["losses"] = dict(sorted(table["losses"].items(), key=lambda kv: int(kv[0])))
    with open(PATH, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
