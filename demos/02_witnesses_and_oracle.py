"""Witness instances and the exact MinMaxShare oracle.

Builds the worst-case vector certifying each share bound, then confirms the
claim with the exact MinMaxShare oracle — the equality is exact rational
arithmetic, not a tolerance check.
"""

from fractions import Fraction as F

from fairchores import (
    exact_mms,
    format_instance_csv,
    hill_share,
    lex_minmax,
    minmax_partition,
    mms_lower_bound,
    witness_lower,
    witness_upper,
)

print("worst-case witness for n = 3, alpha = 3/10, m = 7")
w = witness_upper(3, F(3, 10), 7)
print(format_instance_csv(w.instance, comments=(f"claimed_mms = {w.claimed_mms}",)))
print(f"oracle says {exact_mms(w.vector, 3)},"
      f" closed form says {hill_share(3, F(3, 10), 7)}")

print()
print("best-case witness for n = 2, alpha = 7/20, m = 3")
w = witness_lower(2, F(7, 20), 3)
print("  objects:", w.vector.values)
print(f"  oracle {exact_mms(w.vector, 2)} = formula {mms_lower_bound(2, F(7, 20), 3)}")

print()
print("one optimal partition for the classic (3/10, 1/4, 1/4, 1/5) vector")
from fairchores import DisutilityVector
v = DisutilityVector((F(3, 10), F(1, 4), F(1, 4), F(1, 5)), normalized=True)
value, alloc = minmax_partition(v, 2)
print(f"  value {value}, bundles {[sorted(b) for b in alloc.bundles]}")

print()
print("lexicographic min-max allocation of the same vector")
alloc = lex_minmax(v, 2)
loads = sorted((v.value_of(b) for b in alloc.bundles), reverse=True)
print(f"  bundles {[sorted(b) for b in alloc.bundles]}, sorted loads {loads}")
