"""Pure-Python bitset kernels.

Masks are plain ints (states fit in one machine word, space cap 64).
Member sets of families are sets of masks; ``below_set`` is the one bit
walk that tells whether such a set is down-closed, and ``closed_antichain``
and ``is_downclosed`` build on it.  The lift oracle's principal parts
(``Transformer.subset_images``) do not: a part's images all lie below its
top image, so one count against 2^|top| decides their closure.
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
    """Subset-maximal elements of a list, set, frozenset or tuple of masks,
    sorted ascending.  (The traced benchmark counts its input with len.)

    One sort, by popcount descending: a mask can only sit inside a mask
    with more states, and two distinct masks of one popcount never
    contain each other, so each mask is compared with every kept mask
    that could hold it.
    """
    uniq = sorted(set(sets), key=int.bit_count, reverse=True)
    if len(uniq) < 2:
        return uniq
    kept = []
    for m in uniq:
        for k in kept:
            if m & ~k == 0:
                break
        else:
            kept.append(m)
    kept.sort()
    return kept


def expand_downset(antichain, cap):
    """All subsets of the antichain's members, sorted; None if > cap."""
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
    return sorted(out)


def below_set(members):
    """The members exactly one state smaller than another member, or None
    when the member set is not down-closed.

    One pass over the members: each member's subsets one state smaller
    must be members.  In a down-closed set a member strictly inside
    another has a member one state larger, so the below set is exactly
    the members that are not maximal.
    """
    ms = members if isinstance(members, (set, frozenset)) else set(members)
    below = set()
    for m in ms:
        t = m
        while t:
            low = t & -t
            sub = m ^ low
            if sub not in ms:
                return None
            below.add(sub)
            t ^= low
    return below


def closed_antichain(members):
    """The sorted antichain of a down-closed member set, or None when the
    set is not down-closed: the members less their below set."""
    ms = members if isinstance(members, (set, frozenset)) else set(members)
    below = below_set(ms)
    if below is None:
        return None
    return sorted(ms.difference(below))


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
