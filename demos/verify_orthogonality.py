"""Superimpose squares and decide t-orthogonality, with the brute-force
oracle double-checking every verdict.

Run with: python3 demos/verify_orthogonality.py
"""

from molsnet import (brute_force_distinctness, is_t_orthogonal, make_mols_family,
                     superimpose, verify_set_orthogonality)


def main():
    family = make_mols_family(4)
    print("Superimposing the first three order-4 squares gives an array of")
    print("ordered triples, one per cell:")
    array = superimpose(list(family.squares[:3]))
    for row in array.grid:
        print("   ", "  ".join("".join(map(str, entry)) for entry in row))
    report = is_t_orthogonal(array)
    print(f"3-orthogonal: {report.is_orthogonal} "
          f"({report.distinct_count} distinct tuples out of 16)")
    print(f"brute-force agrees: {brute_force_distinctness(array)}")
    print()

    print("The same family is NOT pairwise 2-orthogonal; shifted rows repeat")
    print("symbol pairs across the wrap:")
    pair = superimpose(list(family.squares[:2]))
    report = is_t_orthogonal(pair)
    a, b = report.first_collision
    print(f"squares 1,2: orthogonal={report.is_orthogonal}, "
          f"{report.distinct_count}/16 distinct, cells {a} and {b} "
          f"both hold {pair.tuple_at(*a)}")
    print()

    print("The order-5 additive family passes every subset size:")
    family = make_mols_family(5)
    for t in (2, 3, 4):
        report = verify_set_orthogonality(family, t)
        print(f"  t={t}: {report.subset_count} subsets, "
              f"all orthogonal: {report.all_orthogonal}")
    print()

    print("Stacking a square with itself can only produce the n diagonal")
    print("tuples, so it always fails:")
    square = family[0]
    report = is_t_orthogonal(superimpose([square, square]))
    print(f"  orthogonal: {report.is_orthogonal}, "
          f"distinct tuples: {report.distinct_count} (= n)")


if __name__ == "__main__":
    main()
