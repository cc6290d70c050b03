"""Pure-Python bitset kernels.

Masks are plain ints (states fit in one machine word, space cap 64).
A family's member sets are the frozensets of masks ``FamilySet`` stores,
and the kernels on them take a set or frozenset and return a frozenset
(``below_set`` a set), unsorted.  ``below_set`` is the one bit walk that
tells whether such a set is down-closed; ``is_downclosed`` builds on it.
The lift oracle's principal parts (``Rel.subset_images``) do not: a
part's images all lie below its top image, so one count against 2^|top|
decides their closure.
"""


def states_of(mask):
    """Ascending state ids in a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def dirimg_rows(rows, p):
    """Union of successor rows over the states in mask p."""
    out = 0
    while p:
        low = p & -p
        out |= rows[low.bit_length() - 1]
        p ^= low
    return out


def compose_rows(rows_a, rows_b):
    """Row table of the forward composition a;b."""
    return [dirimg_rows(rows_b, row) for row in rows_a]


def converse_rows(rows, n):
    out = [0] * n
    for s, row in enumerate(rows):
        bit = 1 << s
        t = row
        while t:
            low = t & -t
            out[low.bit_length() - 1] |= bit
            t ^= low
    return out


def maximal_sets(sets):
    """The subset-maximal masks of a set or frozenset of masks.

    One sort, by popcount descending: a mask can only sit inside a mask
    with more states, and two distinct masks of one popcount never
    contain each other, so each mask is compared with every kept mask
    that could hold it.
    """
    kept = []
    for m in sorted(sets, key=int.bit_count, reverse=True):
        for k in kept:
            if m & ~k == 0:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def expand_downset(antichain, cap):
    """Every subset of the antichain's members, or None if > cap."""
    out = set()
    for m in antichain:
        if m.bit_count() >= cap.bit_length():
            if (1 << m.bit_count()) > cap:
                return None
        sub = m
        while True:
            out.add(sub)
            if len(out) > cap:
                return None
            if sub == 0:
                break
            sub = (sub - 1) & m
    return frozenset(out)


def below_set(members):
    """The members of a set or frozenset of masks exactly one state
    smaller than another member, or None when the members are not
    down-closed.

    One pass over the members: each member's subsets one state smaller
    must be members.  In a down-closed set a member strictly inside
    another has a member one state larger, so the below set is exactly
    the members that are not maximal.
    """
    below = set()
    for m in members:
        t = m
        while t:
            low = t & -t
            sub = m ^ low
            if sub not in members:
                return None
            below.add(sub)
            t ^= low
    return below


def is_downclosed(members):
    """True iff the member set is closed under removing one element."""
    return below_set(members) is not None


def psc_scan_table(table, n):
    """Check 'every subset of an image is the exact image of some subset'.

    table[q] is the image of mask q, for all q over n states.  Returns
    (True, -1, -1) or (False, q, r) for the first failing pair in scan
    order: q ascending, r descending submasks of table[q].
    """
    for q in range(1 << n):
        fq = table[q]
        r = fq
        while r:
            r = (r - 1) & fq
            s = q
            ok = False
            while True:
                if table[s] == r:
                    ok = True
                    break
                if s == 0:
                    break
                s = (s - 1) & q
            if not ok:
                return False, q, r
    return True, -1, -1
