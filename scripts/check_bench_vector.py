#!/usr/bin/env python3
"""Perf smoke over BENCH_vector.json: batched must beat scalar.

Fails (exit 1) if, at n = 10^5 and for each precision (double and float),
the best batched Epanechnikov cell's elements/s falls below the scalar
tiled sweep's — the regression this guards is the lane-batched gather
kernels losing their vector margin (e.g. the contiguous-run fast path
silently breaking). Timing noise is absorbed by taking the *best* batched
cell across lane widths, so only a wholesale loss trips it.

Usage: check_bench_vector.py [BENCH_vector.json]
"""
import json
import sys


def check(cells, path, n, kernel, precision) -> bool:
    same = [
        c for c in cells
        if c["n"] == n and c["kernel"] == kernel
        and c.get("precision", "double") == precision
    ]
    scalar = [c for c in same if c["lane_width"] == 0]
    batched = [c for c in same if c["lane_width"] != 0]
    if not scalar or not batched:
        print(f"{path}: no n={n} {kernel} {precision} cells "
              f"(scalar={len(scalar)}, batched={len(batched)})")
        return False

    scalar_eps = scalar[0]["elements_per_s"]
    best = max(batched, key=lambda c: c["elements_per_s"])
    best_eps = best["elements_per_s"]
    ratio = best_eps / scalar_eps
    print(f"scalar {kernel} {precision} n={n}: {scalar_eps:.3e} elem/s")
    print(f"best batched: C={best['lane_width']} {best_eps:.3e} elem/s "
          f"({ratio:.2f}x, contig_rate={best['contig_rate']:.2f})")
    if best_eps < scalar_eps:
        print(f"FAIL: batched {kernel} {precision} is slower than the "
              "scalar tiled sweep")
        return False
    return True


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_vector.json"
    with open(path) as f:
        cells = json.load(f)["cells"]

    ok = all([check(cells, path, 100_000, "epanechnikov", precision)
              for precision in ("double", "float")])
    if not ok:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
