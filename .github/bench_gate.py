#!/usr/bin/env python3
"""Gate fresh `calibrate --json` output against the committed BENCH_*.json.

usage: bench_gate.py [--only SUBSTRING] FRESH.json...

Each FRESH file names its transport; its headlines are compared with
BENCH_<transport>.json next to this repository's root under the rules of
GATES below. `--only` restricts a call to the keys containing SUBSTRING
(a CI job gates what it is about). GATES is also the definition of "a key
CI reads": the wall-clock halves of `calibrate` (udp, shm) must emit
exactly these keys — a headline nobody gates is weather, not a baseline.
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# rule -> (holds(fresh, base), how the bound prints)
RULES = {
    # Virtual time is deterministic: drift means behaviour changed and the
    # baseline must be regenerated in the same PR.
    "exact": (lambda f, b: f == b, lambda b: f"== {b:.3f}"),
    # Bandwidths must not drop, latencies not grow, by more than 20 %.
    "floor 0.8": (lambda f, b: f >= 0.8 * b, lambda b: f">= {0.8 * b:.3f}"),
    "ceiling 1.2": (lambda f, b: f <= 1.2 * b, lambda b: f"<= {1.2 * b:.3f}"),
    # Loopback tails on shared runners are noisy: catch collapse, not jitter.
    "ceiling 5x": (lambda f, b: f <= 5.0 * b, lambda b: f"<= {5.0 * b:.3f}"),
}

TAILS = [f"{shape}_{tail}_ns"
         for shape in ("uniform", "hotspot", "incast", "shuffle")
         for tail in ("p99", "p999")]
PUTS = [f"put_{size}_mbps" for size in ("64k", "256k")]

GATES = {
    "sim": [(f"sim_{key}", "exact") for key in TAILS + PUTS],
    "udp": [("udp_fm2_peak_bandwidth_mbps", "floor 0.8"),
            ("udp_fm2_latency_16b_one_way_ns", "ceiling 5x"),
            ("udp_churn_recovery_p50_ms", "ceiling 5x")]
           + [(f"udp_{key}", "floor 0.8") for key in PUTS]
           + [(f"udp_{key}", "ceiling 5x") for key in TAILS],
    "shm": [("shm_fm2_peak_bandwidth_mbps", "floor 0.8"),
            ("shm_fm2_bandwidth_2k_mbps", "floor 0.8"),
            ("shm_fm2_latency_16b_one_way_ns", "ceiling 1.2")]
           + [(f"shm_{key}", "floor 0.8") for key in PUTS],
}


def gate(fresh_path, only):
    fresh = json.load(open(fresh_path))
    transport = fresh["transport"]
    base = json.load(open(ROOT / f"BENCH_{transport}.json"))["headline"]
    failures = []
    if transport != "sim":  # the sim half is the paper's figures: `cmp`-ed whole
        gated = {key for key, _ in GATES[transport]}
        for name, headline in (("fresh", fresh["headline"]), ("committed", base)):
            stray = sorted(set(headline) ^ gated)
            if stray:
                failures.append(f"{name} {transport} keys differ from the gate table: {stray}")
    for key, rule in GATES[transport]:
        if only not in key:
            continue
        holds, bound = RULES[rule]
        b, f = base[key], fresh["headline"][key]
        ok = holds(f, b)
        print(f"{key}: baseline {b:.3f} fresh {f:.3f} ({'ok' if ok else 'FAIL ' + bound(b)})")
        if not ok:
            failures.append(key)
    return failures


def main(argv):
    only = ""
    if argv[:1] == ["--only"]:
        only, argv = argv[1], argv[2:]
    if not argv:
        sys.exit(__doc__)
    failures = [f for path in argv for f in gate(path, only)]
    if failures:
        sys.exit(f"benchmark regression: {failures}")


if __name__ == "__main__":
    main(sys.argv[1:])
