"""Pathological presentations of omega: the well-foundedness of a decidable
order can hide the truth of a predicate.

Run:  python demos/pathological_orders.py
"""

from ordlab import audit, check_ascending, find_descending, kreisel_presentation


def queries(p, a, b):
    """The arguments p.less(a, b) reads the predicate at: 0 up to max(a, b),
    or up to the least counterexample below it, as the answer of
    least_counterexample names them."""
    k = p.least_counterexample(max(a, b))
    return list(range(max(a, b) + 1 if k is None else k + 1))


print("== a totally true predicate gives plain omega ==")
p = kreisel_presentation("true")
print("  ascending through 100:", check_ascending(p, 100))
print("  descending chain within 1000:", find_descending(p, 1000))

print()
print("== one counterexample flips the tail into a descending chain ==")
p = kreisel_presentation("x != 7")
print("  3 < 6 ?", p.less(3, 6), "   6 < 7 ?", p.less(6, 7), "   9 < 8 ?", p.less(9, 8))
chain = find_descending(p, 20)
print("  descent from the least counterexample:", " > ".join(map(str, chain)))

print()
print("== the window decides what you can see ==")
for window in (5, 6, 7, 8, 50):
    report = audit(p, window)
    print(f"  window {window:3}: counterexamples={report.counterexamples} "
          f"descents={report.descents} equivalent={'yes' if report.equivalent else 'no'}")
print("  (below the counterexample the order is indistinguishable from omega)")

print()
print("== deciding a comparison never looks past its arguments ==")
print("  queries for less(4,5):", queries(p, 4, 5))
print("  queries for less(30,12):", queries(p, 30, 12), " (early exit at the counterexample)")

print()
print("== a hidden counterexample far out ==")
p = kreisel_presentation("x != 199")
print("  ascending through 150:", check_ascending(p, 150))
print("  ascending through 200:", check_ascending(p, 200))
print("  descent within 200:", find_descending(p, 200))
