"""A second exact oracle for split polynomials, for precisions the
brute-force oracle cannot enumerate.

For f = u * p^c * prod (x - a_i)^e_i with p not dividing u, a residue x is
a root of f mod p^k exactly when c + sum e_i * min(v(x - a_i), k) >= k.
split_counts counts those x by a recursion over the base-p digits of the
a_i, with integer arithmetic alone: it shares no code with the lifting tree
or the polynomial arithmetic of igusazeta.
"""


def split_counts(p: int, c: int, roots: list[tuple[int, int]], k: int) -> tuple[int, int]:
    """(N_k, the number of maximal representative roots mod p^k) of
    u * p^c * prod (x - a)^e over roots = [(a, e), ...], p prime.
    """

    def walk(depth: int, inside: list[tuple[int, int]], fixed: int) -> tuple[int, int, bool]:
        # The class of the x that share their first `depth` digits with the
        # roots in `inside`.  `fixed` is c plus what the other roots add, the
        # same for every x of the class.  Returns the class's root count, its
        # number of maximal families and whether every x in it is a root.
        total_e = sum(e for _, e in inside)
        if fixed + depth * total_e >= k:
            return p ** (k - depth), 1, True
        digits: dict[int, list[tuple[int, int]]] = {}
        for a, e in inside:
            digits.setdefault(a // p**depth % p, []).append((a, e))
        # A root with another digit than the child's is at valuation depth.
        kids = [
            walk(depth + 1, group, fixed + depth * (total_e - sum(e for _, e in group)))
            for group in digits.values()
        ]
        count = sum(n for n, _, _ in kids)
        if len(kids) == p and all(full for _, _, full in kids):
            return count, 1, True
        return count, sum(families for _, families, _ in kids), False

    count, families, _ = walk(0, roots, c)
    return count, families
