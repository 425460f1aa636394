"""Compare two behaviour fingerprints written by ``perfbench/run.py``.

    python3 perfbench/compare_fingerprints.py OLD.json NEW.json

A fingerprint lists, per sequence seed, the chosen order and the DL of
every scored order rounded to 1e-8.  Selections present in both files are
compared; the exit code is 0 when they all agree and 1 otherwise.
"""
import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["workload"], {s["seed"]: s for s in doc["selections"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (wa, a), (wb, b) = load(argv[0]), load(argv[1])
    if wa != wb:
        print(f"different workloads: {wa} and {wb}", file=sys.stderr)
        return 2
    common = sorted(set(a) & set(b))
    differ = 0
    for seed in common:
        x, y = a[seed], b[seed]
        if x["chosen_order"] != y["chosen_order"]:
            print(f"seed {seed}: chosen order {x['chosen_order']} -> {y['chosen_order']}")
        for order in sorted(set(x["dl"]) | set(y["dl"]), key=int):
            dx, dy = x["dl"].get(order), y["dl"].get(order)
            if dx != dy:
                print(f"seed {seed} order {order}: DL {dx} -> {dy}")
        differ += x != y
    print(f"{wa}: {len(common)} common selections, {differ} differ")
    return 1 if differ or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
