"""Print an exact character table and check it against first principles.

The quaternion group of order 8 is small enough to read at a glance and
rich enough to show the exact arithmetic: the degree-2 character takes the
value -2 on the central involution and 0 elsewhere, with no floating point
anywhere in the pipeline.
"""

from groupchar import compute_table, generalized_quaternion, verify_table

group = generalized_quaternion(8)
table = compute_table(group)
summary = verify_table(table)

print(f"group: {group.label}  order {group.order}  exponent {group.exponent}")
print(f"conductor of all values: {table.conductor}")
print(f"verified: {summary}")
print()

classes = table.classes
header = "  ".join(f"g{r}(x{s})" for r, s in zip(classes.reps, classes.sizes))
print(f"{'deg':>4}  {header}")
for chi in table:
    row = "  ".join(f"{str(v):>7}" for v in chi.values)
    print(f"{chi.degree:>4}  {row}")
print()

# Column identity at the identity column: sum of chi(1)^2 is |G|, exactly.
total = sum(int(d) ** 2 for d in table.degrees)
print(f"sum of degree squares: {total}  (group order {group.order})")

# The nonlinear character is the unique faithful one.
faithful = [chi for chi in table if chi.kernel().order == 1]
print(f"faithful characters: {len(faithful)}, degree {faithful[0].degree}")
